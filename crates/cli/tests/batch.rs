//! Integration tests for `netart batch`: clean runs over directories
//! and manifest files, mixed-outcome exit codes, `--jobs N` determinism
//! (manifest and diagram bytes), and graceful drain on SIGTERM.
//!
//! The determinism and signal cases drive the real `netart` binary via
//! `CARGO_BIN_EXE_netart`; the input-collection error cases call
//! [`netart_cli::run_batch`] in-process.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use netart::obs::{BatchManifest, Json, JobStatus, SCHEMA_VERSION};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netart-batch-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Writes the module library plus `count` clean three-file jobs
/// (`job_<i>.net/.cal/.io`) into `dir`; returns the library path.
fn write_fixture(dir: &Path, count: usize) -> PathBuf {
    let lib = dir.join("lib");
    fs::create_dir_all(&lib).unwrap();
    fs::write(lib.join("inv.qto"), "module inv 40 20\nin a 0 10\nout y 40 10\n").unwrap();
    for i in 0..count {
        fs::write(
            dir.join(format!("job_{i:03}.net")),
            "n0 u0 y\nn0 u1 a\nnin root in\nnin u0 a\n",
        )
        .unwrap();
        fs::write(dir.join(format!("job_{i:03}.cal")), "u0 inv\nu1 inv\n").unwrap();
        fs::write(dir.join(format!("job_{i:03}.io")), "in in\n").unwrap();
    }
    lib
}

fn netart_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_netart"))
}

fn load_manifest(path: &Path) -> BatchManifest {
    let text = fs::read_to_string(path).expect("manifest written");
    let json = Json::parse(&text).expect("manifest is valid JSON");
    BatchManifest::from_json(&json).expect("manifest matches the schema")
}

#[test]
fn directory_batch_runs_every_job_clean() {
    let dir = scratch("dir");
    let lib = write_fixture(&dir, 3);
    let out = dir.join("out");
    let manifest_path = dir.join("manifest.json");
    let status = netart_bin()
        .args(["batch", "-L"])
        .arg(&lib)
        .args(["--jobs", "2", "--out-dir"])
        .arg(&out)
        .arg("--report-json")
        .arg(&manifest_path)
        .arg(&dir)
        .status()
        .expect("netart batch runs");
    assert_eq!(status.code(), Some(0), "all-clean batch exits 0");
    // `from_json` accepts only BATCH_SCHEMA_VERSION.
    let manifest = load_manifest(&manifest_path);
    assert_eq!(manifest.jobs.len(), 3);
    assert!(manifest.jobs.iter().all(|j| j.status == JobStatus::Ok));
    assert!(
        manifest.jobs.iter().all(|j| j.report.is_some()),
        "each job record embeds its run report"
    );
    for i in 0..3 {
        assert!(out.join(format!("job_{i:03}.esc")).is_file());
        assert!(out.join(format!("job_{i:03}.svg")).is_file());
    }
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn example_job_list_runs_clean() {
    let dir = scratch("examples");
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/batch");
    let out = dir.join("out");
    let manifest_path = dir.join("manifest.json");
    let status = netart_bin()
        .args(["batch", "-L"])
        .arg(examples.join("lib"))
        .args(["--jobs", "2", "--out-dir"])
        .arg(&out)
        .arg("--report-json")
        .arg(&manifest_path)
        .arg(examples.join("jobs.list"))
        .status()
        .expect("netart batch runs");
    assert_eq!(status.code(), Some(0), "the example batch is clean");
    let manifest = load_manifest(&manifest_path);
    assert_eq!((manifest.tool.as_str(), manifest.summary.ok), ("netart batch", 3));
    assert!(manifest.jobs.windows(2).all(|w| w[0].input < w[1].input), "sorted by input");
    for job in &manifest.jobs {
        assert_eq!((job.status, job.attempts), (JobStatus::Ok, 1), "{}", job.input);
        let stem = Path::new(&job.input).file_stem().unwrap().to_string_lossy();
        assert!(out.join(format!("{stem}.esc")).is_file(), "{stem}.esc");
        assert!(out.join(format!("{stem}.svg")).is_file(), "{stem}.svg");
    }
    // Each job embeds a current-schema run report.
    let doc = Json::parse(&fs::read_to_string(&manifest_path).unwrap()).unwrap();
    let jobs = doc.get("jobs").and_then(Json::as_arr).expect("jobs array");
    for job in jobs {
        let version = job.get("report").and_then(|r| r.get("schema_version"));
        assert_eq!(version.and_then(Json::as_u64), Some(u64::from(SCHEMA_VERSION)));
    }
    let mut left = fs::read_dir(&out).unwrap().map(|e| e.unwrap().path());
    assert!(!left.any(|p| p.extension().is_some_and(|e| e == "tmp")), "temp file left");
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn manifest_file_mixes_explicit_and_sibling_lines() {
    let dir = scratch("manifest");
    let lib = write_fixture(&dir, 2);
    // Line 1 spells the files out; line 2 uses the sibling convention.
    fs::write(
        dir.join("jobs.list"),
        "# comment\njob_000.net job_000.cal job_000.io\njob_001.net\n",
    )
    .unwrap();
    let out = dir.join("out");
    let manifest_path = dir.join("manifest.json");
    let status = netart_bin()
        .args(["batch", "-L"])
        .arg(&lib)
        .arg("--out-dir")
        .arg(&out)
        .arg("--report-json")
        .arg(&manifest_path)
        .arg(dir.join("jobs.list"))
        .status()
        .expect("netart batch runs");
    assert_eq!(status.code(), Some(0));
    assert_eq!(load_manifest(&manifest_path).jobs.len(), 2);
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn failing_job_exits_two_and_the_rest_complete() {
    let dir = scratch("mixed");
    let lib = write_fixture(&dir, 2);
    // A malformed net-list record: a permanent parse failure, no retry.
    fs::write(dir.join("job_bad.net"), "only two\n").unwrap();
    fs::write(dir.join("job_bad.cal"), "u0 inv\n").unwrap();
    let out = dir.join("out");
    let manifest_path = dir.join("manifest.json");
    let status = netart_bin()
        .args(["batch", "-L"])
        .arg(&lib)
        .args(["--jobs", "2", "--out-dir"])
        .arg(&out)
        .arg("--report-json")
        .arg(&manifest_path)
        .arg(&dir)
        .status()
        .expect("netart batch runs");
    assert_eq!(status.code(), Some(2), "a failed job degrades the batch");
    let manifest = load_manifest(&manifest_path);
    assert_eq!(manifest.jobs.len(), 3);
    let bad = manifest
        .jobs
        .iter()
        .find(|j| j.input.ends_with("job_bad.net"))
        .expect("failed job recorded");
    assert_eq!(bad.status, JobStatus::Failed);
    assert_eq!(bad.attempts, 1, "permanent failures are not retried");
    assert!(bad.error.is_some());
    assert_eq!(manifest.summary.ok, 2, "clean jobs still complete");
    assert!(out.join("job_000.esc").is_file());
    assert!(out.join("job_001.esc").is_file());
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn parallel_batch_matches_serial_byte_for_byte() {
    let dir = scratch("determinism");
    let lib = write_fixture(&dir, 6);
    let mut manifests = Vec::new();
    for jobs in ["1", "4"] {
        let out = dir.join(format!("out-{jobs}"));
        let manifest_path = dir.join(format!("manifest-{jobs}.json"));
        let status = netart_bin()
            .args(["batch", "-L"])
            .arg(&lib)
            .args(["--jobs", jobs, "--out-dir"])
            .arg(&out)
            .arg("--report-json")
            .arg(&manifest_path)
            .arg(&dir)
            .status()
            .expect("netart batch runs");
        assert_eq!(status.code(), Some(0));
        manifests.push(load_manifest(&manifest_path));
    }
    let serial = manifests[0].normalized();
    let mut parallel = manifests[1].normalized();
    // Worker count is a run parameter, not an outcome.
    assert_eq!(parallel.jobs_in_flight, 4);
    parallel.jobs_in_flight = serial.jobs_in_flight;
    assert_eq!(
        serial.to_json_string(),
        parallel.to_json_string(),
        "normalized manifests are byte-identical across --jobs"
    );
    for i in 0..6 {
        for ext in ["esc", "svg"] {
            let name = format!("job_{i:03}.{ext}");
            let a = fs::read(dir.join("out-1").join(&name)).expect("serial output");
            let b = fs::read(dir.join("out-4").join(&name)).expect("parallel output");
            assert_eq!(a, b, "{name} differs between --jobs 1 and --jobs 4");
        }
    }
    let _ = fs::remove_dir_all(dir);
}

#[cfg(unix)]
#[test]
fn sigterm_drains_gracefully_with_a_complete_manifest() {
    let dir = scratch("sigterm");
    let lib = write_fixture(&dir, 200);
    let out = dir.join("out");
    let manifest_path = dir.join("manifest.json");
    let mut child = netart_bin()
        .args(["batch", "-L"])
        .arg(&lib)
        .args(["--jobs", "1", "--out-dir"])
        .arg(&out)
        .arg("--report-json")
        .arg(&manifest_path)
        .arg(&dir)
        .spawn()
        .expect("netart batch starts");
    // Signal once the first diagram is out, so the batch is mid-run
    // whatever the build's speed; give up waiting if it ends first.
    let started = std::time::Instant::now();
    let first_out = || {
        fs::read_dir(&out).is_ok_and(|mut entries| {
            entries.any(|e| e.is_ok_and(|e| e.path().extension().is_some_and(|x| x == "esc")))
        })
    };
    while !first_out()
        && child.try_wait().expect("batch status").is_none()
        && started.elapsed() < std::time::Duration::from_secs(60)
    {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let _ = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    let status = child.wait().expect("batch exits");
    let manifest = load_manifest(&manifest_path);
    // The manifest is complete whatever the timing: one record per job.
    assert_eq!(manifest.jobs.len(), 200);
    if manifest.drained {
        assert!(
            manifest.summary.skipped > 0,
            "queued jobs were recorded as skipped"
        );
        assert_eq!(status.code(), Some(2), "a drained batch exits 2");
    } else {
        // The batch won the race and finished before the signal; the
        // drain path itself is covered by the engine's unit tests.
        assert_eq!(status.code(), Some(0));
    }
    // Atomic writes: no partial outputs survive, whatever was cut off.
    for entry in fs::read_dir(&out).expect("out dir") {
        let path = entry.unwrap().path();
        assert!(
            path.extension().is_some_and(|e| e == "esc" || e == "svg"),
            "no temp or partial file left behind: {}",
            path.display()
        );
    }
    // Every emitted diagram is complete enough to re-parse as text.
    for job in manifest.jobs.iter().filter(|j| j.status == JobStatus::Ok) {
        let stem = Path::new(&job.input).file_stem().unwrap().to_string_lossy();
        let esc = out.join(format!("{stem}.esc"));
        assert!(esc.is_file(), "ok job {} has its diagram", job.input);
    }
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn duplicate_output_stems_are_rejected_up_front() {
    let dir = scratch("dupstem");
    let _lib = write_fixture(&dir, 1);
    let other = dir.join("other");
    fs::create_dir_all(&other).unwrap();
    fs::write(other.join("job_000.net"), "n0 u0 y\nn0 u1 a\n").unwrap();
    fs::write(other.join("job_000.cal"), "u0 inv\nu1 inv\n").unwrap();
    let argv: Vec<String> = [
        "-L".to_owned(),
        dir.join("lib").to_string_lossy().into_owned(),
        dir.join("job_000.net").to_string_lossy().into_owned(),
        other.join("job_000.net").to_string_lossy().into_owned(),
    ]
    .to_vec();
    let err = netart_cli::run_batch(&argv).expect_err("colliding stems rejected");
    assert!(err.to_string().contains("job_000"), "{err}");
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn missing_call_sibling_is_rejected_up_front() {
    let dir = scratch("nocal");
    let lib = write_fixture(&dir, 1);
    fs::remove_file(dir.join("job_000.cal")).unwrap();
    let argv: Vec<String> = [
        "-L".to_owned(),
        lib.to_string_lossy().into_owned(),
        dir.join("job_000.net").to_string_lossy().into_owned(),
    ]
    .to_vec();
    let err = netart_cli::run_batch(&argv).expect_err("missing .cal rejected");
    assert!(err.to_string().contains(".cal"), "{err}");
    let _ = fs::remove_dir_all(dir);
}
