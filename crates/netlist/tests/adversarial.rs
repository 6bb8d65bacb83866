//! Adversarial robustness: random byte-level corruption of valid input
//! files must yield a clean `Err` (or still be read) — the doctor must
//! never panic under any policy, whatever arrives. This is the property
//! backing the pipeline-hardening guarantee that bad input files fail
//! with line-located diagnostics, not a crash.

use proptest::prelude::*;

use netart_netlist::doctor::{doctor_module, doctor_network, InputPolicy};
use netart_netlist::{Library, Template, TermType};

const POLICIES: [InputPolicy; 3] = [
    InputPolicy::Strict,
    InputPolicy::Repair,
    InputPolicy::BestEffort,
];

const QUINTO: &str = "module inv 40 20\nin a 0 10\nout y 40 10\n";
const NETS: &str = "n0 u0 y\nn0 u1 a\nnin root in\nnin u0 a\nnout u1 y\nnout root out\n";
const CALLS: &str = "u0 inv\nu1 inv\n";
const IO: &str = "in in\nout out\n";

fn lib() -> Library {
    let mut lib = Library::new();
    lib.add_template(
        Template::new("inv", (4, 2))
            .expect("valid size")
            .with_terminal("a", (0, 1), TermType::In)
            .expect("valid terminal")
            .with_terminal("y", (4, 1), TermType::Out)
            .expect("valid terminal"),
    )
    .expect("fresh library");
    lib
}

/// One byte-level corruption: replace, insert, delete, or truncate.
fn mutate(src: &str, kind: usize, position: usize, byte: u8) -> String {
    let mut bytes = src.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let at = position % bytes.len();
    match kind % 4 {
        0 => bytes[at] = byte,
        1 => bytes.insert(at, byte),
        2 => {
            bytes.remove(at);
        }
        _ => bytes.truncate(at),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// Corrupted quinto module descriptions never panic the doctor.
    #[test]
    fn quinto_survives_corruption(
        kind in 0usize..4,
        position in 0usize..1024,
        byte in proptest::prelude::any::<u8>(),
    ) {
        let corrupted = mutate(QUINTO, kind, position, byte);
        for policy in POLICIES {
            let _ = doctor_module(&corrupted, policy);
        }
    }

    /// Corrupted Appendix A files never panic the network doctor, in
    /// any combination of which file is corrupted.
    #[test]
    fn network_files_survive_corruption(
        which in 0usize..3,
        kind in 0usize..4,
        position in 0usize..1024,
        byte in proptest::prelude::any::<u8>(),
    ) {
        let (nets, calls, io) = match which {
            0 => (mutate(NETS, kind, position, byte), CALLS.to_owned(), IO.to_owned()),
            1 => (NETS.to_owned(), mutate(CALLS, kind, position, byte), IO.to_owned()),
            _ => (NETS.to_owned(), CALLS.to_owned(), mutate(IO, kind, position, byte)),
        };
        for policy in POLICIES {
            let _ = doctor_network(lib(), &nets, &calls, Some(&io), policy);
        }
    }

    /// Pure garbage — arbitrary short byte strings — never panics
    /// either doctor.
    #[test]
    fn garbage_never_panics(
        bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..160),
    ) {
        let garbage = String::from_utf8_lossy(&bytes).into_owned();
        for policy in POLICIES {
            let _ = doctor_module(&garbage, policy);
            let _ = doctor_network(lib(), &garbage, &garbage, Some(&garbage), policy);
        }
    }
}

/// Diagnostics out of corrupted files keep pointing at a file and a
/// line, so the CLI message stays actionable.
#[test]
fn errors_keep_line_context() {
    let err = doctor_network(lib(), "n0 u0 y\nn0 zz a\n", CALLS, None, InputPolicy::Strict)
        .expect_err("unknown instance");
    assert_eq!(err.diagnostics[0].line, 2);
    assert!(err.to_string().contains("ND005 [net:2]"), "{err}");
}

/// Field-level diagnostics also say where in the line the defect is:
/// they name the offending field (there is no column number).
#[test]
fn errors_carry_column_context() {
    let strict = InputPolicy::Strict;
    let cases = [
        (
            doctor_network(lib(), "", "u0 missing\n", None, strict).map(drop),
            "ND004 [call:1] unknown template `missing`",
        ),
        (
            doctor_module("module inv 40 20\nin a 0 15\n", strict).map(drop),
            "ND008 [module:2] y-coordinate 15 is not divisible by 10",
        ),
    ];
    for (result, expected) in cases {
        let err = result.expect_err(expected).to_string();
        assert!(err.contains(expected), "{err}");
    }
}
