//! The *quinto* module description format (Appendix B of the paper).
//!
//! A module file consists of a heading and one record per terminal:
//!
//! ```text
//! module <MODULE-NAME> <WIDTH> <HEIGHT>
//! <TYPE> <TERM-NAME> <X> <Y>
//! ...
//! ```
//!
//! The appendix imposes that width, height and terminal coordinates are
//! divisible by 10 (the editor's display grid) and that terminals lie on
//! the module outline. Internally the generator works on the coarse
//! track grid, so the reader,
//! [`doctor_module`](crate::doctor::doctor_module), divides all
//! coordinates by 10 and [`write_module`] multiplies them back; a
//! read/write round trip is exact.

use crate::Template;

const GRID: i32 = 10;

/// Writes a [`Template`] as a quinto module description.
pub fn write_module(template: &Template) -> String {
    let (w, h) = template.size();
    let mut out = format!("module {} {} {}\n", template.name(), w * GRID, h * GRID);
    for t in template.terminals() {
        out.push_str(&format!(
            "{} {} {} {}\n",
            t.ty(),
            t.name(),
            t.offset().x * GRID,
            t.offset().y * GRID
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doctor::{doctor_module, DoctorCode, DoctorError, InputPolicy};

    const INV: &str = "module inv 40 20\nin a 0 10\nout y 40 10\n";

    fn read(src: &str) -> Template {
        doctor_module(src, InputPolicy::Strict).unwrap().0
    }

    fn reject(src: &str) -> DoctorError {
        doctor_module(src, InputPolicy::Strict).unwrap_err()
    }

    #[test]
    fn parse_scales_to_track_grid() {
        let t = read(INV);
        assert_eq!(t.name(), "inv");
        assert_eq!(t.size(), (4, 2));
        assert_eq!(t.terminal_count(), 2);
        assert_eq!(t.terminals()[0].offset().y, 1);
    }

    #[test]
    fn round_trip_is_exact() {
        let t = read(INV);
        assert_eq!(write_module(&t), INV);
        assert_eq!(read(&write_module(&t)), t);
    }

    #[test]
    fn rejects_off_grid_values() {
        for (src, line) in [("module m 45 20\n", 1), ("module m 40 20\nin a 0 15\n", 2)] {
            let e = reject(src);
            let d = &e.diagnostics[0];
            assert_eq!((d.code, d.line), (DoctorCode::OffGridCoordinate, line), "{e}");
            assert!(d.message.contains("divisible by 10"), "{e}");
        }
    }

    #[test]
    fn rejects_malformed_records() {
        reject("");
        reject("modul m 40 20\n");
        reject("module m 40 20\nin a 0\n");
        reject("module m 40 20\nsideways a 0 10\n");
        let e = reject("module m 40 20\nin a 10 10\n"); // interior
        let d = &e.diagnostics[0];
        assert_eq!((d.code, d.line), (DoctorCode::TerminalOffBoundary, 2), "{e}");
        assert!(d.message.contains("outline"), "{e}");
        reject("module m 40 20\nin a 50 0\n"); // outside
        let e = reject("module m 40 20\nin a 0 10\nout a 40 10\n");
        assert_eq!(e.diagnostics[0].line, 3);
    }

    #[test]
    fn comments_allowed() {
        let t = read("# inverter\nmodule inv 40 20\n\nin a 0 10\n");
        assert_eq!(t.terminal_count(), 1);
    }
}
