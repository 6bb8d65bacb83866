//! Streaming, memory-governed record ingestion.
//!
//! The Appendix A/B formats are line-oriented, so nothing about them
//! requires the whole file in memory at once. This module reads any
//! [`BufRead`] source line-at-a-time, charging every byte it keeps (and
//! the transient line buffer) against a [`MemBudget`] *before*
//! allocating, so a huge or hostile input is refused with exact byte
//! counts instead of exhausting the process. The refusal surfaces as
//! the doctor's `ND015 resource-exhausted` diagnostic.
//!
//! [`read_records`] is the governed sibling of the in-memory record
//! splitter [`records_from_str`]: same blank-line and `#`-comment
//! handling, but every kept byte is accounted.
//!
//! The `parse.alloc` fault site fires at the charge point, so the
//! chaos suite can force an allocation refusal even with an unlimited
//! budget.

use std::error::Error;
use std::fmt;
use std::io::BufRead;
use std::sync::Arc;

use netart_govern::{Exhausted, MemBudget};

/// One parsed record: a 1-based line number and its whitespace-split
/// fields. The raw line is not retained — diagnostics built from
/// records carry line numbers, not columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// 1-based line number in the source.
    pub line: usize,
    /// Whitespace-separated fields, owned.
    pub fields: Vec<String>,
}

impl Record {
    /// The bytes this record keeps alive: its inline struct, the field
    /// vector, and every field's characters.
    pub fn cost(&self) -> u64 {
        (std::mem::size_of::<Record>() + self.fields.len() * std::mem::size_of::<String>()) as u64
            + self.fields.iter().map(|f| f.len() as u64).sum::<u64>()
    }
}

/// The two budgets of the ingestion path: `input` bounds what the
/// parsers read and keep as records, `network` bounds what the
/// [`crate::NetworkBuilder`] materialises from them. The CLI exposes
/// them as `--max-input-bytes` and `--max-network-bytes`; `netart
/// serve` points both at one shared `--memory-budget`.
#[derive(Debug, Clone)]
pub struct IngestBudgets {
    /// Governs record reading (file bytes kept as parsed fields).
    pub input: Arc<MemBudget>,
    /// Governs network construction (instances, nets, pins, indexes).
    pub network: Arc<MemBudget>,
}

impl Default for IngestBudgets {
    fn default() -> Self {
        IngestBudgets::unlimited()
    }
}

impl IngestBudgets {
    /// Budgets that never refuse.
    pub fn unlimited() -> Self {
        IngestBudgets {
            input: Arc::new(MemBudget::unlimited()),
            network: Arc::new(MemBudget::unlimited()),
        }
    }

    /// Points both stages at one shared budget (the serve model: one
    /// governor for the whole process).
    pub fn shared(budget: Arc<MemBudget>) -> Self {
        IngestBudgets {
            input: Arc::clone(&budget),
            network: budget,
        }
    }

    /// New, empty budgets with the same limits — the per-job model of
    /// `netart batch`, where every job is governed independently and a
    /// finished job's charges must not haunt the next one.
    pub fn fresh(&self) -> IngestBudgets {
        IngestBudgets {
            input: Arc::new(MemBudget::bytes(self.input.limit())),
            network: Arc::new(MemBudget::bytes(self.network.limit())),
        }
    }
}

/// Why streaming ingestion stopped.
#[derive(Debug)]
pub enum IngestError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The memory governor refused an allocation.
    Exhausted(Exhausted),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "read failed: {e}"),
            IngestError::Exhausted(e) => e.fmt(f),
        }
    }
}

impl Error for IngestError {}

impl From<Exhausted> for IngestError {
    fn from(e: Exhausted) -> Self {
        IngestError::Exhausted(e)
    }
}

/// Charges `bytes` against `budget`, with the `parse.alloc` fault site
/// in front: an armed fault simulates a refusal (reporting the current
/// usage as the limit) even when the budget itself would have granted
/// the charge.
pub(crate) fn charge(
    budget: &MemBudget,
    stage: &'static str,
    bytes: u64,
) -> Result<(), Exhausted> {
    if netart_fault::fire(netart_fault::sites::PARSE_ALLOC).is_some() {
        return Err(Exhausted {
            stage,
            requested: bytes,
            used: budget.used(),
            limit: budget.used(),
        });
    }
    budget.try_charge(stage, bytes)
}

/// Reads a whole record file from `reader` under `budget`, line at a
/// time: the line being read is charged while it is held (so even a
/// single pathological multi-gigabyte line is refused, not slurped),
/// blank lines and `#` comments are skipped, and every kept record's
/// bytes are charged before it is stored. The record charges stay on
/// the budget — they account for the returned vector, which the caller
/// now owns. Invalid UTF-8 is replaced lossily, for the doctor to
/// diagnose.
///
/// # Errors
///
/// [`IngestError::Io`] or [`IngestError::Exhausted`].
pub fn read_records<R: BufRead>(
    mut reader: R,
    budget: &MemBudget,
    stage: &'static str,
) -> Result<Vec<Record>, IngestError> {
    let mut out: Vec<Record> = Vec::new();
    let mut line: Vec<u8> = Vec::new();
    let mut lineno: usize = 0;
    let result = loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) => break Err(IngestError::Io(e)),
        };
        let at_end = chunk.is_empty();
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if take > 0 {
            if let Err(e) = charge(budget, stage, take as u64) {
                break Err(e.into());
            }
            line.extend_from_slice(&chunk[..take]);
        }
        reader.consume(newline.map_or(take, |i| i + 1));
        // A line ends at a newline, or at the end of the input.
        let ended = newline.is_some() || (at_end && !line.is_empty());
        if !ended {
            if at_end {
                break Ok(());
            }
            continue;
        }
        lineno += 1;
        if let Some(record) = record(lineno, &String::from_utf8_lossy(&line)) {
            if let Err(e) = charge(budget, stage, record.cost()) {
                break Err(e.into());
            }
            out.push(record);
        }
        budget.release(line.len() as u64);
        line.clear();
        if at_end {
            break Ok(());
        }
    };
    // The line in hand is transient on every exit; on an error the
    // partial vector dies here too, so nothing may stay charged.
    budget.release(line.len() as u64);
    if result.is_err() {
        budget.release(out.iter().map(Record::cost).sum());
    }
    result.map(|()| out)
}

/// The in-memory sibling of [`read_records`]: splits an already-loaded
/// string without touching any budget. Used by the `&str` doctor entry
/// points, whose inputs are by definition already in memory.
pub fn records_from_str(src: &str) -> Vec<Record> {
    src.lines()
        .enumerate()
        .filter_map(|(i, text)| record(i + 1, text))
        .collect()
}

/// The record on 1-based line `line`, or `None` for a blank line or a
/// `#` comment (an extension for readability; the paper's files
/// contain only records).
fn record(line: usize, text: &str) -> Option<Record> {
    let trimmed = text.trim();
    (!trimmed.is_empty() && !trimmed.starts_with('#')).then(|| Record {
        line,
        fields: trimmed.split_whitespace().map(str::to_owned).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn reads_records_like_the_str_splitter() {
        let src = "# comment\n\nn0 u0 y\n  n0   u1   a  \r\ntail u2 b";
        let recs = read_records(Cursor::new(src), &MemBudget::unlimited(), "t").unwrap();
        let from_str = records_from_str(src);
        assert_eq!(recs, from_str);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].line, 3);
        assert_eq!(recs[1].fields, ["n0", "u1", "a"]);
        assert_eq!(recs[2].line, 5, "unterminated last line still parses");
    }

    #[test]
    fn charges_kept_records_and_releases_transient_lines() {
        let budget = MemBudget::bytes(10_000);
        let recs = read_records(Cursor::new("n0 u0 y\nn0 u1 a\n"), &budget, "t").unwrap();
        let expected: u64 = recs.iter().map(Record::cost).sum();
        assert_eq!(budget.used(), expected, "only record bytes stay charged");
    }

    #[test]
    fn refuses_over_budget_input_with_counts() {
        let budget = MemBudget::bytes(64);
        let big = "n0 u0 y\n".repeat(100);
        let e = read_records(Cursor::new(big), &budget, "net-list").unwrap_err();
        let IngestError::Exhausted(e) = e else {
            panic!("expected exhaustion, got {e}");
        };
        assert_eq!(e.stage, "net-list");
        assert_eq!(e.limit, 64);
        assert!(e.to_string().contains("64"), "{e}");
    }

    #[test]
    fn refuses_single_pathological_line_without_slurping() {
        let budget = MemBudget::bytes(1024);
        // One 1 MiB line with no newline: must be refused at ~1 KiB,
        // not buffered whole.
        let big = "x".repeat(1 << 20);
        let e = read_records(Cursor::new(big), &budget, "t").unwrap_err();
        assert!(matches!(e, IngestError::Exhausted(_)), "{e}");
        assert!(budget.used() <= 1024);
    }

    #[test]
    fn transient_charge_is_released_even_for_unterminated_input() {
        let budget = MemBudget::bytes(1 << 20);
        let src = "a b c\n".repeat(10) + &"y".repeat(2048); // no trailing newline
        let recs = read_records(Cursor::new(src), &budget, "t").unwrap();
        let kept: u64 = recs.iter().map(Record::cost).sum();
        assert_eq!(budget.used(), kept, "only kept record bytes stay charged");
    }

    #[test]
    fn shared_budgets_point_at_one_governor() {
        let b = Arc::new(MemBudget::bytes(100));
        let budgets = IngestBudgets::shared(Arc::clone(&b));
        budgets.input.try_charge("a", 60).unwrap();
        assert!(budgets.network.try_charge("b", 60).is_err());
        assert_eq!(b.used(), 60);
    }
}
