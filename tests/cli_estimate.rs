//! CLI output bytes are part of the behavioural contract: `bmf generate`
//! → `bmf estimate` (default, `--degrade`, `--strict`) and `bmf shard` ×2
//! → `bmf merge` must write exactly the files pinned below, for both
//! circuits, at fixed seeds.
//!
//! Every `bmf estimate` runs the same `RobustPipeline`, so the three
//! failure-mode spellings agree on clean data. The digests were taken
//! from the release build; this suite runs in debug under `cargo test`
//! and in release under `cargo test --release`, so it also checks that
//! the build profile never changes an output byte.
//!
//! `bmf yield`, which reads those moments back, must refuse what it
//! cannot compare or bind by name: a NaN spec bound and a moments header
//! with an empty or repeated metric name.

use std::path::PathBuf;
use std::process::{Command, Output};

/// FNV-1a 64 of a file's bytes, as 16 lowercase hex digits.
fn digest(path: &str) -> String {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("bmf-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `bmf <args>` and returns its output, whatever the exit.
fn run_bmf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bmf"))
        .args(["--log-level", "error"])
        .args(args)
        .output()
        .expect("bmf runs")
}

/// Runs `bmf <args>` and asserts a clean exit.
fn bmf(args: &[&str]) {
    let out = run_bmf(args);
    assert!(
        out.status.success(),
        "bmf {args:?} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Runs every pinned command for `circuit` and returns `(file, digest)`
/// for each CSV it wrote.
fn run_circuit(circuit: &str, early_seed: &str, late_seed: &str) -> Vec<(String, String)> {
    let dir = TempDir::new(circuit);
    let early = dir.path("early.csv");
    let late = dir.path("late.csv");
    for (stage, seed, out) in [
        ("schematic", early_seed, &early),
        ("postlayout", late_seed, &late),
    ] {
        bmf(&[
            "generate",
            "--circuit",
            circuit,
            "--stage",
            stage,
            "--samples",
            if stage == "schematic" { "40" } else { "10" },
            "--seed",
            seed,
            "--threads",
            "2",
            "--out",
            out,
        ]);
    }
    let mut files = vec!["early.csv".to_string(), "late.csv".to_string()];
    for (name, mode) in [
        ("default.csv", None),
        ("degrade.csv", Some("--degrade")),
        ("strict.csv", Some("--strict")),
    ] {
        let out = dir.path(name);
        let mut args = vec![
            "estimate",
            "--early",
            &early,
            "--late",
            &late,
            "--threads",
            "2",
            "--out",
            &out,
        ];
        args.extend(mode);
        bmf(&args);
        files.push(name.to_string());
    }
    let packets = [dir.path("shard0.json"), dir.path("shard1.json")];
    for (i, packet) in packets.iter().enumerate() {
        bmf(&[
            "shard",
            "--circuit",
            circuit,
            "--n-early",
            "30",
            "--n-late",
            "10",
            "--seed",
            "2015",
            "--threads",
            "2",
            "--index",
            &format!("{i}/2"),
            "--out",
            packet,
        ]);
    }
    let merged = dir.path("merge.csv");
    bmf(&[
        "merge",
        "--packet",
        &packets[0],
        "--packet",
        &packets[1],
        "--threads",
        "2",
        "--out",
        &merged,
    ]);
    files.push("merge.csv".to_string());
    files
        .into_iter()
        .map(|f| {
            let d = digest(&dir.path(&f));
            (f, d)
        })
        .collect()
}

fn assert_pinned(circuit: &str, got: &[(String, String)], pinned: &[(&str, &str)]) {
    let got: Vec<(&str, &str)> = got.iter().map(|(f, d)| (f.as_str(), d.as_str())).collect();
    assert_eq!(got, pinned, "{circuit}: CLI output bytes changed");
}

#[test]
fn opamp_cli_outputs_match_pinned_digests() {
    let got = run_circuit("opamp", "11", "12");
    assert_pinned(
        "opamp",
        &got,
        &[
            ("early.csv", "1bd035bf2e679b07"),
            ("late.csv", "1c389d82f2209d69"),
            ("default.csv", "6fc31e5dd997d64b"),
            ("degrade.csv", "6fc31e5dd997d64b"),
            ("strict.csv", "6fc31e5dd997d64b"),
            ("merge.csv", "74aa952ad8db61c5"),
        ],
    );
}

#[test]
fn adc_cli_outputs_match_pinned_digests() {
    let got = run_circuit("adc", "21", "22");
    assert_pinned(
        "adc",
        &got,
        &[
            ("early.csv", "24f1f3fd00ac7104"),
            ("late.csv", "3c68773af27a8f22"),
            ("default.csv", "c53afb532e103b12"),
            ("degrade.csv", "c53afb532e103b12"),
            ("strict.csv", "c53afb532e103b12"),
            ("merge.csv", "9404558bed67ca58"),
        ],
    );
}

#[test]
fn yield_rejects_nan_bounds_and_ambiguous_metric_names() {
    let dir = TempDir::new("yield");
    let body = "mean,80,1e-4\ncov0,1,0\ncov1,0,1e-10\n";
    let moments = dir.path("moments.csv");
    std::fs::write(&moments, format!("kind,gain_db,power_w\n{body}")).unwrap();

    // Every comparison with NaN is false: such a bound would pass every
    // die, so it is a usage error (exit 2) that names the bound.
    for (spec, side) in [("gain_db>=NaN", "lower"), ("power_w<=NaN", "upper")] {
        let out = run_bmf(&["yield", "--moments", &moments, "--spec", spec]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec}: {stderr}");
        assert!(
            stderr.contains(&format!("{side} bound is NaN")),
            "{spec}: {stderr}"
        );
    }
    // Infinite bounds stay legal.
    for spec in ["gain_db>=-inf", "power_w<=inf"] {
        let out = run_bmf(&[
            "yield",
            "--moments",
            &moments,
            "--spec",
            spec,
            "--draws",
            "100",
        ]);
        assert!(out.status.success(), "{spec}: {:?}", out.status.code());
    }

    // A spec binds to a metric by name, so a header that omits or repeats
    // one is unreadable input (exit 1) and the error names the position.
    for (header, position) in [
        ("kind,gain_db,", "field 3 "),
        ("kind,gain_db,gain_db", "fields 2 and 3 "),
    ] {
        let path = dir.path("bad.csv");
        std::fs::write(&path, format!("{header}\n{body}")).unwrap();
        let out = run_bmf(&["yield", "--moments", &path, "--spec", "gain_db>=79"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{header}: {stderr}");
        assert!(stderr.contains(position), "{header}: {stderr}");
    }
}
