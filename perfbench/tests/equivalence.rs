//! The benchmark measures the user's path: for one seed, the in-process
//! units produce the same bytes as the `bmf` command line.
//!
//! * `opamp_study` unit == `bmf generate` (both stages) + `bmf estimate
//!   --report`;
//! * `adc_sharded` unit == `bmf shard` × 4 + `bmf merge` (packets and
//!   moments).
//!
//! The test builds the repository's `bmf` binary into this package's
//! target directory, so it needs the repository checkout around it.

use bmf_perfbench::trace::Tracer;
use bmf_perfbench::workloads::{adc_sharded, opamp_study, Ctx, UnitOutcome, Workload};
use std::path::{Path, PathBuf};
use std::process::Command;

const ROOT_SEED: u64 = 7;
const UNIT: u64 = 3;
const THREADS: usize = 2;

/// Builds `bmf` (release, as users run it) and returns its path.
fn bmf_binary() -> PathBuf {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-build");
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "bmf",
            "--manifest-path",
        ])
        .arg(&manifest)
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building bmf failed");
    target.join("release").join("bmf")
}

/// Runs `bmf` with `args` in `dir`, asserting success.
fn bmf(bin: &Path, dir: &Path, args: &[String]) {
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("bmf runs");
    assert!(
        out.status.success(),
        "bmf {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn work_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

/// Unit `UNIT` of `workload`, untraced and traced; both must agree.
fn unit(workload: &str) -> UnitOutcome {
    let w = Workload::setup(workload, ROOT_SEED, THREADS).expect("set-up");
    let quiet = Tracer::new(false);
    let plain = w
        .unit(
            UNIT,
            &Ctx {
                threads: THREADS,
                tracer: &quiet,
                unit: 1,
            },
        )
        .expect("untraced unit");
    let tracer = Tracer::new(true);
    let traced = w
        .unit(
            UNIT,
            &Ctx {
                threads: THREADS,
                tracer: &tracer,
                unit: 1,
            },
        )
        .expect("traced unit");
    assert_eq!(plain.problem, None);
    assert_eq!(
        plain.output, traced.output,
        "traced replay changed the moments"
    );
    assert_eq!(
        plain.packets, traced.packets,
        "traced replay changed the packets"
    );
    plain
}

fn s(v: impl ToString) -> String {
    v.to_string()
}

#[test]
fn cli_paths_match_the_in_process_units() {
    let bin = bmf_binary();

    let dir = work_dir("equivalence-opamp");
    let seed = opamp_study::unit_seed(ROOT_SEED, UNIT);
    for (stage, n, file) in [
        ("schematic", opamp_study::N_EARLY, "early.csv"),
        ("postlayout", opamp_study::N_LATE, "late.csv"),
    ] {
        bmf(
            &bin,
            &dir,
            &[
                s("generate"),
                s("--circuit"),
                s("opamp"),
                s("--stage"),
                s(stage),
                s("--samples"),
                s(n),
                s("--seed"),
                s(seed),
                s("--threads"),
                s(THREADS),
                s("--out"),
                s(file),
            ],
        );
    }
    bmf(
        &bin,
        &dir,
        &[
            s("estimate"),
            s("--early"),
            s("early.csv"),
            s("--late"),
            s("late.csv"),
            s("--seed"),
            s(seed),
            s("--threads"),
            s(THREADS),
            s("--report"),
            s("report.json"),
            s("--out"),
            s("moments.csv"),
        ],
    );
    let cli = std::fs::read(dir.join("moments.csv")).expect("moments.csv");
    assert_eq!(
        unit("opamp_study").output,
        cli,
        "opamp_study moments differ from the CLI's"
    );

    let dir = work_dir("equivalence-shard");
    let config = adc_sharded::study_config(ROOT_SEED, UNIT);
    let mut merge = vec![s("merge")];
    for i in 0..config.shard_count {
        let packet = format!("p{i}.json");
        bmf(
            &bin,
            &dir,
            &[
                s("shard"),
                s("--circuit"),
                s(&config.circuit),
                s("--n-early"),
                s(config.n_early),
                s("--n-late"),
                s(config.n_late),
                s("--index"),
                format!("{i}/{}", config.shard_count),
                s("--seed"),
                s(config.seed),
                s("--fault-rate"),
                s(config.fault_rate),
                s("--retry-attempts"),
                s(config.max_attempts),
                s("--threads"),
                s(THREADS),
                s("--out"),
                packet.clone(),
            ],
        );
        merge.extend([s("--packet"), packet]);
    }
    merge.extend([s("--threads"), s(THREADS), s("--out"), s("moments.csv")]);
    bmf(&bin, &dir, &merge);
    let sharded = unit("adc_sharded");
    for (i, packet) in sharded.packets.iter().enumerate() {
        let cli = std::fs::read_to_string(dir.join(format!("p{i}.json"))).expect("packet");
        assert_eq!(*packet, cli, "shard {i} packet differs from the CLI's");
    }
    let cli = std::fs::read(dir.join("moments.csv")).expect("moments.csv");
    assert_eq!(
        sharded.output, cli,
        "adc_sharded moments differ from the CLI's"
    );
}
