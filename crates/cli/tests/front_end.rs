//! The shared front end of all ten entry points, pinned from the
//! outside: which shared and stream flags each command accepts, the
//! governed input refusal (`ND015`) and its exit codes, and the rule
//! that a stream written to `-` owns stdout alone.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use netart::obs::Json;
use netart_cli::CliError;

/// An entry point run in-process, reduced to its error message.
type Run = fn(&[String]) -> Option<String>;

fn error<T>(result: Result<T, CliError>) -> Option<String> {
    result.err().map(|e| e.to_string())
}

/// The shared flag family and the stream flags, with whether each
/// takes a value.
const FLAGS: [(&str, bool); 11] = [
    ("trace-level", true),
    ("log-json", false),
    ("trace-out", true),
    ("report-json", true),
    ("heat-json", true),
    ("diff-json", true),
    ("input-policy", true),
    ("inject", true),
    ("max-input-bytes", true),
    ("max-network-bytes", true),
    ("strict", false),
];

const TRACED: [&str; 7] = [
    "trace-level", "log-json", "trace-out", "input-policy", "inject", "max-input-bytes",
    "max-network-bytes",
];

/// Each entry point, the file operands that put its operand count out
/// of range (so an accepted flag fails on the count, never runs), and
/// the flags of [`FLAGS`] it accepts.
fn commands() -> Vec<(&'static str, Run, &'static [&'static str], Vec<&'static str>)> {
    let with = |extra: &[&'static str]| TRACED.iter().chain(extra).copied().collect::<Vec<_>>();
    vec![
        ("pablo", |a| error(netart_cli::run_pablo(a)), &[], with(&[])),
        ("eureka", |a| error(netart_cli::run_eureka(a)), &[], with(&["report-json", "strict"])),
        ("netart", |a| error(netart_cli::run_netart(a)), &[], with(&["report-json", "strict"])),
        ("quinto", |a| error(netart_cli::run_quinto(a)), &[], with(&[])),
        ("profile", |a| error(netart_cli::run_profile(a)), &[], with(&["heat-json"])),
        ("stress", |a| error(netart_cli::run_stress(a)), &["extra"], with(&[])),
        ("serve", |a| error(netart_cli::run_serve(a)), &["extra"], with(&[])),
        (
            "batch",
            |a| error(netart_cli::run_batch(a)),
            &[],
            with(&["report-json", "strict"])
                .into_iter()
                .filter(|f| *f != "trace-out")
                .collect(),
        ),
        ("report diff", |a| error(netart_cli::run_report_diff(a)), &[], vec!["diff-json"]),
        ("blackbox", |a| error(netart_cli::run_blackbox(a)), &[], vec![]),
    ]
}

#[test]
fn every_command_accepts_exactly_its_shared_and_stream_flags() {
    for (name, run, operands, accepted) in commands() {
        for (flag, takes_value) in FLAGS {
            let mut argv = vec![format!("--{flag}")];
            if takes_value {
                argv.push("v".to_owned());
            }
            argv.extend(operands.iter().map(|s| s.to_string()));
            let err = run(&argv).unwrap_or_else(|| panic!("{name} --{flag}: ran anyway"));
            if accepted.contains(&flag) {
                assert!(err.contains("file operand"), "{name} must accept --{flag}: {err}");
            } else {
                assert_eq!(err, format!("unknown option `--{flag}`"), "{name} --{flag}");
            }
        }
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netart-front-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A two-inverter design, written as `d.net` / `d.call` / `d.io` plus
/// `lib/inv.qto`, a batch job directory `jobs/` and a module
/// description `buf.qto`.
fn write_inputs(dir: &Path) {
    fs::create_dir_all(dir.join("lib")).unwrap();
    fs::create_dir_all(dir.join("jobs")).unwrap();
    fs::write(dir.join("lib/inv.qto"), "module inv 40 20\nin a 0 10\nout y 40 10\n").unwrap();
    let net = "n0 u0 y\nn0 u1 a\nnin root in\nnin u0 a\n";
    let call = "u0 inv\nu1 inv\n";
    for (path, text) in [
        ("d.net", net),
        ("d.call", call),
        ("d.io", "in in\n"),
        ("jobs/a.net", net),
        ("jobs/a.cal", call),
        ("buf.qto", "module buf 20 20\nin a 0 10\nout y 20 10\n"),
    ] {
        fs::write(dir.join(path), text).unwrap();
    }
}

/// Runs a binary in `dir` with its temporary directory inside `dir`.
fn run_in(dir: &Path, bin: &str, args: &[&str]) -> Output {
    let tmp = dir.join("tmp");
    fs::create_dir_all(&tmp).unwrap();
    Command::new(bin)
        .args(args)
        .current_dir(dir)
        .env("TMPDIR", &tmp)
        .output()
        .expect("binary spawns")
}

const DESIGN: [&str; 3] = ["d.net", "d.call", "d.io"];

/// Every file under `dir` except the inputs [`write_inputs`] made.
fn outputs(dir: &Path) -> Vec<String> {
    let inputs = ["d.net", "d.call", "d.io", "buf.qto", "lib/inv.qto", "jobs/a.net", "jobs/a.cal"];
    let mut found = Vec::new();
    let mut stack = vec![dir.to_owned()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap().filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).unwrap().to_string_lossy().into_owned();
                if !inputs.contains(&rel.as_str()) {
                    found.push(rel);
                }
            }
        }
    }
    found
}

#[test]
fn a_refused_input_exits_two_or_one_under_strict_and_writes_nothing() {
    let netart = env!("CARGO_BIN_EXE_netart");
    let cases: [(&str, &str, &[&str], bool); 7] = [
        ("pablo", env!("CARGO_BIN_EXE_pablo"), &["-L", "lib", "-o", "out"], false),
        (
            "eureka",
            env!("CARGO_BIN_EXE_eureka"),
            &["-L", "lib", "--diagram", "placed.esc", "-o", "out"],
            true,
        ),
        ("netart", netart, &["-L", "lib", "-o", "out"], true),
        ("quinto", env!("CARGO_BIN_EXE_quinto"), &["-L", "newlib", "buf.qto"], false),
        ("profile", netart, &["profile", "-L", "lib", "--heat-json", "heat.json"], false),
        ("batch", netart, &["batch", "-L", "lib", "--out-dir", "out", "jobs"], true),
        ("stress", netart, &["stress", "--modules", "16", "--phase", "parse"], false),
    ];
    for (name, bin, args, has_strict) in cases {
        let stricts: &[bool] = if has_strict { &[false, true] } else { &[false] };
        for &strict in stricts {
            let dir = scratch(&format!("refuse-{}-{strict}", name.replace(' ', "-")));
            write_inputs(&dir);
            let mut argv: Vec<&str> = args.to_vec();
            argv.extend(["--max-input-bytes", "1"]);
            if strict {
                argv.push("--strict");
            }
            if matches!(name, "pablo" | "eureka" | "netart" | "profile") {
                argv.extend(DESIGN);
            }
            let out = run_in(&dir, bin, &argv);
            let stdout = String::from_utf8_lossy(&out.stdout);
            let want = if strict { 1 } else { 2 };
            assert_eq!(out.status.code(), Some(want), "{name} strict={strict}: {out:?}");
            assert!(stdout.starts_with("input refused: "), "{name}: {stdout}");
            assert!(stdout.contains("ND015"), "{name}: {stdout}");
            assert_eq!(outputs(&dir), Vec::<String>::new(), "{name} strict={strict}");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn a_trace_written_to_stdout_is_all_of_stdout() {
    let dir = scratch("trace-stdout");
    write_inputs(&dir);
    let pablo = env!("CARGO_BIN_EXE_pablo");
    let placed = run_in(&dir, pablo, &["-L", "lib", "-o", "placed", "d.net", "d.call", "d.io"]);
    assert!(placed.status.success(), "{placed:?}");
    let netart = env!("CARGO_BIN_EXE_netart");
    let cases: [(&str, &str, &[&str]); 6] = [
        ("pablo", pablo, &["-L", "lib", "-o", "p"]),
        ("eureka", env!("CARGO_BIN_EXE_eureka"), &["-L", "lib", "--diagram", "placed.esc"]),
        ("netart", netart, &["-L", "lib", "-o", "n"]),
        ("quinto", env!("CARGO_BIN_EXE_quinto"), &["-L", "newlib", "buf.qto"]),
        ("profile", netart, &["profile", "-L", "lib"]),
        ("stress", netart, &["stress", "--modules", "64", "--phase", "parse"]),
    ];
    for (name, bin, args) in cases {
        let mut argv: Vec<&str> = args.to_vec();
        argv.extend(["--trace-out", "-"]);
        if matches!(name, "pablo" | "eureka" | "netart" | "profile") {
            argv.extend(DESIGN);
        }
        let out = run_in(&dir, bin, &argv);
        assert!(out.status.success(), "{name}: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        let doc = Json::parse(&stdout).unwrap_or_else(|e| panic!("{name}: {e}\n{stdout}"));
        assert!(doc.as_arr().is_some_and(|e| !e.is_empty()), "{name}: {stdout}");
        assert!(!out.stderr.is_empty(), "{name}: the summary moves to stderr");
    }
    let _ = fs::remove_dir_all(&dir);
}
