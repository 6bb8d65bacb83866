//! The routing heat-map profile schema.
//!
//! `netart profile` aggregates the per-net EUREKA counters
//! (`NetRouteStats`) into a spatial grid over the diagram: each cell
//! counts search expansions, rip-up victims, salvage settlements and
//! touching nets attributed to that region. The result is a
//! [`ProfileReport`] — schema-versioned JSON (`"kind": "profile"`)
//! plus an ASCII rendering — built only from deterministic counters,
//! so two runs over the same input produce bit-identical documents.
//!
//! For `netart report diff`, a profile converts to a synthetic
//! [`RunReport`] whose metrics counters carry the totals and the
//! per-cell counts; diffing two profiles then reuses the exact-counter
//! semantics of [`ReportDiff`](crate::ReportDiff), and a self-diff is
//! empty.

use crate::json::{json_record, read_member, Json, JsonField};
use crate::report::{NetworkReport, RunReport};

/// Version of the profile shape. Bump when members are renamed,
/// removed, or change meaning.
pub const PROFILE_SCHEMA_VERSION: u32 = 1;

/// The `kind` discriminator of a profile document, distinguishing it
/// from run reports in `report diff` inputs.
pub const PROFILE_KIND: &str = "profile";

json_record! {
    /// One non-empty grid cell of the heat map.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ProfileCell {
        /// Column index, 0-based from the left edge of the bounds.
        pub col: u32,
        /// Row index, 0-based from the top edge of the bounds.
        pub row: u32,
        /// Search nodes expanded attributed to this cell.
        pub expansions: u64,
        /// Rip-up victims attributed to this cell.
        pub ripup_victims: u64,
        /// Nets whose salvage cascade settled in this cell.
        pub salvaged: u64,
        /// Nets touching this cell.
        pub nets: u64,
    }

    /// Whole-diagram totals (the sums of the per-net counters, before any
    /// grid attribution — cell counts sum back to these).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ProfileTotals {
        /// Nets profiled.
        pub nets: u64,
        /// Nets that ended with a real route.
        pub routed: u64,
        /// Search nodes expanded across all nets and passes.
        pub expansions: u64,
        /// Routed victims ripped up while salvaging.
        pub ripup_victims: u64,
        /// Nets settled by the salvage cascade.
        pub salvaged: u64,
    }

    document(
        version: PROFILE_SCHEMA_VERSION,
        oldest: PROFILE_SCHEMA_VERSION,
        noun: "profile",
        kind: PROFILE_KIND,
    )
    /// A spatial congestion profile of one routing run.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct ProfileReport {
        /// Which tool produced the profile (`netart profile`).
        pub tool: String,
        /// Grid columns.
        pub cols: u32,
        /// Grid rows.
        pub rows: u32,
        /// Diagram-coordinate bounds the grid covers: `(x0, y0, x1, y1)`,
        /// inclusive of `x0`/`y0`, exclusive of `x1`/`y1`.
        pub bounds: (i64, i64, i64, i64),
        /// Whole-run totals.
        pub totals: ProfileTotals,
        /// Non-empty cells in row-major order.
        pub cells: Vec<ProfileCell>,
    }
}

impl ProfileReport {
    /// Whether a parsed document is a profile (as opposed to a run
    /// report) — the discriminator `report diff` keys on.
    pub fn is_profile_json(json: &Json) -> bool {
        json.get("kind").and_then(Json::as_str) == Some(PROFILE_KIND)
    }

    /// The heat map as ASCII art: one character per cell on an
    /// intensity ramp over expansions (linear in the cell's share of
    /// the hottest cell), `!` overlaid where rip-up victims landed.
    pub fn render_ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let hottest = self.cells.iter().map(|c| c.expansions).max().unwrap_or(0);
        let mut grid = vec![vec![b' '; self.cols as usize]; self.rows as usize];
        for c in &self.cells {
            if c.row >= self.rows || c.col >= self.cols {
                continue;
            }
            let glyph = if c.ripup_victims > 0 {
                b'!'
            } else if hottest == 0 || c.expansions == 0 {
                if c.nets > 0 { b'.' } else { b' ' }
            } else {
                // Map (0, hottest] onto ramp indices 1..=9.
                let idx = 1 + (c.expansions.saturating_mul(8) / hottest) as usize;
                RAMP[idx.min(RAMP.len() - 1)]
            };
            grid[c.row as usize][c.col as usize] = glyph;
        }
        let mut out = String::new();
        out.push('+');
        out.push_str(&"-".repeat(self.cols as usize));
        out.push_str("+\n");
        for row in &grid {
            out.push('|');
            for &b in row {
                out.push(b as char);
            }
            out.push_str("|\n");
        }
        out.push('+');
        out.push_str(&"-".repeat(self.cols as usize));
        out.push_str("+\n");
        out.push_str(&format!(
            "{} nets ({} routed), {} expansions (hottest cell {}), {} rip-up victims (!), {} salvaged\n",
            self.totals.nets,
            self.totals.routed,
            self.totals.expansions,
            hottest,
            self.totals.ripup_victims,
            self.totals.salvaged,
        ));
        out
    }

    /// The profile as a synthetic [`RunReport`] whose counters carry
    /// the totals and the per-cell counts, so two profiles diff with
    /// the exact-counter semantics of `report diff`. Both sides of a
    /// diff must be converted the same way (the CLI does); a self-diff
    /// yields no entries.
    pub fn to_run_report(&self) -> RunReport {
        let mut report = RunReport {
            tool: self.tool.clone(),
            network: NetworkReport {
                modules: 0,
                nets: self.totals.nets as usize,
                system_terminals: 0,
            },
            is_clean: true,
            ..RunReport::default()
        };
        let counters = &mut report.metrics.counters;
        counters.insert("heat.grid.cols".to_owned(), u64::from(self.cols));
        counters.insert("heat.grid.rows".to_owned(), u64::from(self.rows));
        counters.insert("heat.total.nets".to_owned(), self.totals.nets);
        counters.insert("heat.total.routed".to_owned(), self.totals.routed);
        counters.insert("heat.total.expansions".to_owned(), self.totals.expansions);
        counters.insert("heat.total.ripup_victims".to_owned(), self.totals.ripup_victims);
        counters.insert("heat.total.salvaged".to_owned(), self.totals.salvaged);
        for c in &self.cells {
            let cell = format!("heat.cell.{:03}x{:03}", c.col, c.row);
            counters.insert(format!("{cell}.expansions"), c.expansions);
            counters.insert(format!("{cell}.ripup_victims"), c.ripup_victims);
            counters.insert(format!("{cell}.salvaged"), c.salvaged);
            counters.insert(format!("{cell}.nets"), c.nets);
        }
        report
    }
}

/// The `bounds` member: the `(x0, y0, x1, y1)` tuple renders as an
/// object with one member per corner coordinate.
impl JsonField for (i64, i64, i64, i64) {
    fn to_json(&self) -> Json {
        let (x0, y0, x1, y1) = *self;
        Json::obj().with("x0", x0).with("y0", y0).with("x1", x1).with("y1", y1)
    }

    fn read(json: &Json) -> Result<Option<Self>, String> {
        let corner = |key| read_member::<i64>(json, key);
        Ok(Some((corner("x0")?, corner("y0")?, corner("x1")?, corner("y1")?)))
    }

    fn absent() -> Result<Self, String> {
        Ok((0, 0, 0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReportDiff;

    fn sample() -> ProfileReport {
        ProfileReport {
            tool: "netart profile".to_owned(),
            cols: 4,
            rows: 2,
            bounds: (0, -4, 40, 20),
            totals: ProfileTotals {
                nets: 3,
                routed: 2,
                expansions: 190,
                ripup_victims: 1,
                salvaged: 1,
            },
            cells: vec![
                ProfileCell {
                    col: 0,
                    row: 0,
                    expansions: 150,
                    ripup_victims: 0,
                    salvaged: 0,
                    nets: 2,
                },
                ProfileCell {
                    col: 2,
                    row: 1,
                    expansions: 40,
                    ripup_victims: 1,
                    salvaged: 1,
                    nets: 1,
                },
            ],
        }
    }

    #[test]
    fn profile_roundtrips_through_json() {
        let original = sample();
        let text = original.to_json_string();
        let parsed = Json::parse(&text).expect("rendered profile parses");
        assert!(ProfileReport::is_profile_json(&parsed));
        let read_back = ProfileReport::from_json(&parsed).expect("profile reads back");
        assert_eq!(read_back, original);
        assert_eq!(read_back.to_json_string(), text, "roundtrip is byte-stable");
    }

    #[test]
    fn version_and_kind_are_validated() {
        let missing = Json::parse(r#"{"kind":"profile"}"#).unwrap();
        assert!(ProfileReport::from_json(&missing)
            .unwrap_err()
            .contains("missing schema_version"));
        let wrong = Json::parse(r#"{"schema_version":9,"kind":"profile"}"#).unwrap();
        assert!(ProfileReport::from_json(&wrong)
            .unwrap_err()
            .contains("unsupported schema_version"));
        let not_profile = Json::parse(r#"{"schema_version":1,"kind":"report"}"#).unwrap();
        assert!(!ProfileReport::is_profile_json(&not_profile));
        assert!(ProfileReport::from_json(&not_profile)
            .unwrap_err()
            .contains("kind"));
    }

    #[test]
    fn synthetic_run_report_self_diffs_clean() {
        let report = sample().to_run_report();
        let diff = ReportDiff::diff(&report, &report);
        assert!(diff.entries.is_empty(), "{:?}", diff.entries);
        assert_eq!(report.metrics.counters["heat.total.expansions"], 190);
        assert_eq!(report.metrics.counters["heat.cell.000x000.expansions"], 150);
    }

    #[test]
    fn synthetic_run_report_flags_hot_cell_drift() {
        let baseline = sample().to_run_report();
        let mut hotter = sample();
        hotter.cells[0].expansions = 300;
        hotter.totals.expansions = 340;
        let diff = ReportDiff::diff(&baseline, &hotter.to_run_report());
        assert!(diff.is_regression());
        let names: Vec<&str> = diff.regressions().map(|e| e.metric.as_str()).collect();
        assert!(
            names.contains(&"counters.heat.cell.000x000.expansions"),
            "{names:?}"
        );
    }

    #[test]
    fn ascii_rendering_marks_hot_and_ripped_cells() {
        let art = sample().render_ascii();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines[0], "+----+");
        assert_eq!(lines.len(), 2 + 2 + 1, "border + rows + legend");
        // Hottest cell renders at the top of the ramp; the rip-up cell
        // is overlaid with '!'.
        assert_eq!(&lines[1][1..2], "@");
        assert_eq!(&lines[2][3..4], "!");
        assert!(lines[4].contains("190 expansions"), "{art}");
    }

    #[test]
    fn empty_profile_renders_without_panicking() {
        let empty = ProfileReport {
            tool: "netart profile".to_owned(),
            cols: 2,
            rows: 1,
            ..ProfileReport::default()
        };
        let art = empty.render_ascii();
        assert!(art.contains("0 nets"), "{art}");
        let text = empty.to_json_string();
        let read_back = ProfileReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(read_back, empty);
    }
}
