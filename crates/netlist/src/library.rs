use std::collections::HashMap;

use crate::{BuildError, Template, TemplateId};

/// The module library (Appendix C of the paper): a store of module
/// templates addressed by id or name.
///
/// # Examples
///
/// ```
/// use netart_netlist::{Library, Template};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut lib = Library::new();
/// let id = lib.add_template(Template::new("buf", (2, 2))?)?;
/// assert_eq!(lib.template(id).name(), "buf");
/// assert_eq!(lib.template_by_name("buf"), Some(id));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Library {
    templates: Vec<Template>,
    by_name: HashMap<String, TemplateId>,
}

impl Library {
    /// Creates an empty library.
    pub fn new() -> Self {
        Library::default()
    }

    /// Adds a template; the equivalent of the paper's *quinto* program
    /// registering a new module.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::DuplicateTemplate`] when a template of the
    /// same name already exists.
    pub fn add_template(&mut self, template: Template) -> Result<TemplateId, BuildError> {
        if self.by_name.contains_key(template.name()) {
            return Err(BuildError::DuplicateTemplate {
                name: template.name().to_owned(),
            });
        }
        let id = TemplateId(self.templates.len() as u32);
        self.by_name.insert(template.name().to_owned(), id);
        self.templates.push(template);
        Ok(id)
    }

    /// The template for an id.
    ///
    /// # Panics
    ///
    /// Panics when the id does not come from this library.
    pub fn template(&self, id: TemplateId) -> &Template {
        &self.templates[id.index()]
    }

    /// Looks up a template id by name.
    pub fn template_by_name(&self, name: &str) -> Option<TemplateId> {
        self.by_name.get(name).copied()
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// `true` when the library holds no templates.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Iterates over `(id, template)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (TemplateId, &Template)> {
        self.templates
            .iter()
            .enumerate()
            .map(|(i, t)| (TemplateId(i as u32), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut lib = Library::new();
        assert!(lib.is_empty());
        let a = lib.add_template(Template::new("a", (2, 2)).unwrap()).unwrap();
        let b = lib.add_template(Template::new("b", (4, 4)).unwrap()).unwrap();
        assert_ne!(a, b);
        assert_eq!(lib.len(), 2);
        assert_eq!(lib.template(a).name(), "a");
        assert_eq!(lib.template_by_name("b"), Some(b));
        assert_eq!(lib.template_by_name("c"), None);
        let names: Vec<&str> = lib.iter().map(|(_, t)| t.name()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut lib = Library::new();
        lib.add_template(Template::new("a", (2, 2)).unwrap()).unwrap();
        let e = lib.add_template(Template::new("a", (4, 4)).unwrap()).unwrap_err();
        assert_eq!(e, BuildError::DuplicateTemplate { name: "a".into() });
        assert_eq!(e.to_string(), "duplicate template name `a`");
        assert_eq!(lib.len(), 1);
    }
}
