use std::error::Error;
use std::fmt;

/// Error constructing a [`crate::Template`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateError {
    /// The template size is not strictly positive.
    NonPositiveSize {
        /// Offending width and height.
        size: (i32, i32),
    },
    /// A terminal does not lie on the template boundary.
    TerminalOffBoundary {
        /// Terminal name.
        name: String,
        /// Offending relative position.
        position: (i32, i32),
    },
    /// Two terminals share a name.
    DuplicateTerminal {
        /// The duplicated name.
        name: String,
    },
    /// Two terminals share a position.
    OverlappingTerminals {
        /// The shared position.
        position: (i32, i32),
    },
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::NonPositiveSize { size } => {
                write!(f, "template size {}x{} is not strictly positive", size.0, size.1)
            }
            TemplateError::TerminalOffBoundary { name, position } => write!(
                f,
                "terminal `{name}` at ({}, {}) is not on the template boundary",
                position.0, position.1
            ),
            TemplateError::DuplicateTerminal { name } => {
                write!(f, "duplicate terminal name `{name}`")
            }
            TemplateError::OverlappingTerminals { position } => write!(
                f,
                "two terminals share position ({}, {})",
                position.0, position.1
            ),
        }
    }
}

impl Error for TemplateError {}

/// Error building a [`crate::Network`] through [`crate::NetworkBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An instance name was used twice.
    DuplicateInstance {
        /// The duplicated name.
        name: String,
    },
    /// A system terminal name was used twice.
    DuplicateSystemTerminal {
        /// The duplicated name.
        name: String,
    },
    /// A template name was used twice in one library.
    DuplicateTemplate {
        /// The duplicated name.
        name: String,
    },
    /// A referenced template id does not exist in the library.
    UnknownTemplate {
        /// The missing id, printed as text.
        id: String,
    },
    /// A referenced terminal name does not exist on the instance's
    /// template.
    UnknownTerminal {
        /// Instance name.
        instance: String,
        /// Name of the instance's template.
        template: String,
        /// Missing terminal name.
        terminal: String,
    },
    /// The same pin was connected to two different nets.
    PinReconnected {
        /// Description of the pin.
        pin: String,
        /// Net it was already on.
        old_net: String,
        /// Net that also claimed it.
        new_net: String,
    },
    /// A net connects fewer than two points.
    UnderfilledNet {
        /// Net name.
        net: String,
        /// Number of points it connects.
        pins: usize,
    },
    /// The memory governor refused a growth; carries the exact byte
    /// counts. Surfaces as the doctor's `ND015` diagnostic.
    ResourceExhausted(netart_govern::Exhausted),
}

impl From<netart_govern::Exhausted> for BuildError {
    fn from(e: netart_govern::Exhausted) -> Self {
        BuildError::ResourceExhausted(e)
    }
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicateInstance { name } => {
                write!(f, "duplicate instance name `{name}`")
            }
            BuildError::DuplicateSystemTerminal { name } => {
                write!(f, "duplicate system terminal name `{name}`")
            }
            BuildError::DuplicateTemplate { name } => {
                write!(f, "duplicate template name `{name}`")
            }
            BuildError::UnknownTemplate { id } => write!(f, "unknown template {id}"),
            BuildError::UnknownTerminal {
                instance,
                template,
                terminal,
            } => write!(f, "instance `{instance}` ({template}) has no terminal `{terminal}`"),
            BuildError::PinReconnected { pin, old_net, new_net } => write!(
                f,
                "pin {pin} already on net `{old_net}`, also claimed by `{new_net}`"
            ),
            BuildError::UnderfilledNet { net, pins } => {
                write!(f, "net `{net}` connects only {pins} point(s); at least 2 required")
            }
            BuildError::ResourceExhausted(e) => e.fmt(f),
        }
    }
}

impl Error for BuildError {}

/// A line-located parse error, for the text formats the doctor does
/// not read: Appendix C template representations and the ESCHER
/// diagram format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number where parsing failed.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    /// Creates a parse error at the given 1-based line (0 for errors not
    /// tied to a line). Public so that downstream crates implementing
    /// sibling formats (e.g. the ESCHER diagram format) can reuse it.
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = TemplateError::TerminalOffBoundary {
            name: "a".into(),
            position: (2, 3),
        };
        assert!(e.to_string().contains("`a`"));
        let e = BuildError::UnderfilledNet { net: "n".into(), pins: 1 };
        assert!(e.to_string().contains("at least 2"));
        let e = ParseError::new(4, "bad record");
        assert_eq!(e.to_string(), "line 4: bad record");
    }
}
