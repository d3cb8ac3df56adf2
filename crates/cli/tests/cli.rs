//! End-to-end tests of the `fiq` binary itself.

use std::process::Command;

fn fiq(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fiq"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn lists_workloads() {
    let (ok, stdout, _) = fiq(&["workloads"]);
    assert!(ok);
    for name in ["bzip2", "libquantum", "ocean", "hmmer", "mcf", "raytrace"] {
        assert!(stdout.contains(name), "{stdout}");
    }
}

#[test]
fn runs_a_workload_at_both_levels() {
    let (ok, ir_out, ir_err) = fiq(&["run", "mcf", "--level", "ir"]);
    assert!(ok, "{ir_err}");
    let (ok, asm_out, asm_err) = fiq(&["run", "mcf", "--level", "asm"]);
    assert!(ok, "{asm_err}");
    assert_eq!(ir_out, asm_out, "levels agree");
    assert!(ir_err.contains("dynamic instructions"));
}

#[test]
fn compiles_to_both_representations() {
    let (ok, ir, _) = fiq(&["compile", "ocean", "--emit", "ir"]);
    assert!(ok);
    assert!(
        ir.contains("define") && ir.contains("getelementptr"),
        "{ir}"
    );
    let (ok, asm, _) = fiq(&["compile", "ocean", "--emit", "asm"]);
    assert!(ok);
    assert!(asm.contains("main:") && asm.contains("push rbp"), "{asm}");
}

#[test]
fn profiles_categories() {
    let (ok, out, _) = fiq(&["profile", "hmmer"]);
    assert!(ok);
    for cat in ["arithmetic", "cast", "cmp", "load", "all"] {
        assert!(out.contains(cat), "{out}");
    }
}

#[test]
fn injects_deterministically() {
    let args = [
        "inject",
        "mcf",
        "--tool",
        "llfi",
        "--category",
        "load",
        "--seed",
        "5",
    ];
    let (ok1, a, _) = fiq(&args);
    let (ok2, b, _) = fiq(&args);
    assert!(ok1 && ok2);
    assert_eq!(a, b, "same seed, same plan and outcome");
    assert!(a.contains("outcome:"), "{a}");
}

#[test]
fn runs_a_small_campaign() {
    let (ok, out, err) = fiq(&[
        "campaign",
        "libquantum",
        "--category",
        "cmp",
        "--injections",
        "20",
        "--seed",
        "9",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("llfi") && out.contains("pinfi"), "{out}");
}

#[test]
fn reports_errors_cleanly() {
    let (ok, _, err) = fiq(&["run", "/nonexistent/prog.mc"]);
    assert!(!ok);
    assert!(err.contains("fiq:"), "{err}");
    let (ok, _, err) = fiq(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"), "{err}");
    let (ok, _, err) = fiq(&["inject", "mcf", "--category", "bogus"]);
    assert!(!ok);
    assert!(err.contains("unknown category"), "{err}");
}

#[test]
fn boolean_flags_do_not_swallow_positionals() {
    // Regression: the old parser treated any flag as value-taking and
    // consumed the following argument, so a boolean flag placed before
    // the program name ate it.
    let (ok, out, err) = fiq(&["run", "--no-opt", "mcf", "--level", "ir"]);
    assert!(ok, "{err}");
    assert!(!out.is_empty(), "program must have run: {out}");
    let (ok, out2, err) = fiq(&[
        "campaign",
        "--progress",
        "libquantum",
        "--category",
        "cmp",
        "--injections",
        "4",
    ]);
    assert!(ok, "{err}");
    assert!(out2.contains("llfi") && out2.contains("pinfi"), "{out2}");
    assert!(err.contains("injections done"), "{err}");
}

#[test]
fn rejects_unknown_flags_with_usage() {
    let (ok, _, err) = fiq(&["campaign", "libquantum", "--frobnicate"]);
    assert!(!ok, "unknown flags must fail");
    assert!(err.contains("unknown flag --frobnicate"), "{err}");
    assert!(
        err.contains("--injections <value>") && err.contains("--fast-forward"),
        "error must list the valid flags: {err}"
    );
    // A flag valid for one subcommand is still unknown to another.
    let (ok, _, err) = fiq(&["run", "mcf", "--injections", "5"]);
    assert!(!ok);
    assert!(err.contains("unknown flag --injections"), "{err}");
}

#[test]
fn rejects_malformed_flag_values() {
    let (ok, _, err) = fiq(&["campaign", "libquantum", "--injections", "many"]);
    assert!(!ok);
    assert!(err.contains("--injections expects a number"), "{err}");
    let (ok, _, err) = fiq(&["inject", "mcf", "--seed", "x"]);
    assert!(!ok);
    assert!(err.contains("--seed expects a number"), "{err}");
    let (ok, _, err) = fiq(&["inject", "mcf", "--category"]);
    assert!(!ok);
    assert!(err.contains("--category requires a value"), "{err}");
    let (ok, _, err) = fiq(&["campaign", "libquantum", "--resume=yes"]);
    assert!(!ok);
    assert!(err.contains("--resume does not take a value"), "{err}");
}

#[test]
fn numeric_flag_values_that_look_like_flags() {
    // Regression: a numeric value opening with `-` must be accepted as
    // the flag's value (a value flag consumes the next argument
    // unconditionally), not mistaken for a flag — and it must never
    // swallow the following positional.
    let neg = ["inject", "mcf", "--seed", "-1", "--category", "load"];
    let (ok1, a, err) = fiq(&neg);
    assert!(ok1, "{err}");
    let (ok2, b, _) = fiq(&neg);
    assert!(ok2);
    assert_eq!(a, b, "negative seed is deterministic");
    assert!(a.contains("outcome:"), "{a}");

    // `=` form of the same negative value parses identically.
    let (ok, c, err) = fiq(&["inject", "mcf", "--seed=-1", "--category", "load"]);
    assert!(ok, "{err}");
    assert_eq!(a, c, "space and = forms agree");

    // A negative seed is a different seed, not a silent default.
    let (ok, d, err) = fiq(&["inject", "mcf", "--seed", "-2", "--category", "load"]);
    assert!(ok, "{err}");
    assert_ne!(a, d, "distinct negative seeds give distinct plans");

    // Garbage stays rejected with a clear error naming the flag.
    let (ok, _, err) = fiq(&["inject", "mcf", "--seed", "-"]);
    assert!(!ok);
    assert!(err.contains("--seed expects a number"), "{err}");
    let (ok, _, err) = fiq(&["inject", "mcf", "--seed", "-1.5"]);
    assert!(!ok);
    assert!(err.contains("--seed expects a number"), "{err}");
    // Counts are unsigned: a negative injection count is malformed, and
    // the error names the value so the user sees what was consumed.
    let (ok, _, err) = fiq(&["campaign", "libquantum", "--injections", "-4"]);
    assert!(!ok);
    assert!(
        err.contains("--injections expects a number, got `-4`"),
        "{err}"
    );
    // A flag-looking token after a value flag is consumed as its value
    // and reported back, never resolved as the next flag or positional.
    let (ok, _, err) = fiq(&["inject", "mcf", "--seed", "--category"]);
    assert!(!ok);
    assert!(
        err.contains("--seed expects a number, got `--category`"),
        "{err}"
    );
}

#[test]
fn accepts_equals_style_flag_values() {
    let (ok, out, err) = fiq(&[
        "campaign",
        "libquantum",
        "--category=cmp",
        "--injections=4",
        "--seed=9",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("llfi"), "{out}");
}

#[test]
fn fast_forward_campaign_matches_full_replay() {
    let base = [
        "campaign",
        "libquantum",
        "--category",
        "cmp",
        "--injections",
        "8",
        "--seed",
        "3",
    ];
    let (ok, full, err) = fiq(&base);
    assert!(ok, "{err}");
    let mut ff: Vec<&str> = base.to_vec();
    ff.push("--fast-forward");
    let (ok, fast, err) = fiq(&ff);
    assert!(ok, "{err}");
    assert_eq!(full, fast, "fast-forward must not change campaign output");
}

#[test]
fn campaign_bounds_injections_before_compiling() {
    let dir = std::env::temp_dir().join(format!("fiq-cli-bounds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A program that does not compile: the bound must fail first.
    let bad = dir.join("bad.mc");
    std::fs::write(&bad, "int main( {").unwrap();
    let limit = fiq_serve::prepare::MAX_INJECTIONS;
    let over = (limit + 1).to_string();
    for prog in [bad.to_str().unwrap(), "libquantum"] {
        let (ok, out, err) = fiq(&["campaign", prog, "--injections", &over]);
        assert!(!ok, "{prog}: {out}");
        assert!(
            err.contains(&format!(
                "`injections` is {over}, above the limit of {limit}"
            )),
            "{prog}: {err}"
        );
    }
    let (ok, _, err) = fiq(&["campaign", "libquantum", "--threads", "1025"]);
    assert!(!ok);
    assert!(err.contains("above the limit"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The exact plan of ocean `all` has tens of millions of classes. It is
/// refused with an error naming the cell and its cost, after a counting
/// pass — not by an abort when the plan's allocation fails.
const OCEAN_EXACT: [&str; 11] = [
    "ocean",
    "--category",
    "all",
    "--injections",
    "40",
    "--seed",
    "5",
    "--threads",
    "1",
    "--collapse",
    "exact",
];

#[test]
fn exact_plan_past_the_class_limit_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_fiq"))
        .arg("campaign")
        .args(OCEAN_EXACT)
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(out.stdout.is_empty());
    let limit = fiq_core::MAX_EXACT_INSTANCES;
    assert!(
        err.contains("cell 0 (ocean/all): exact collapse needs")
            && err.contains("golden runs of")
            && err.contains(&format!("the per-cell limit is {limit}")),
        "{err}"
    );
}

/// The daemon plans a submission inside its request handler: the same
/// campaign is a 400 there, and the daemon keeps serving.
#[test]
fn daemon_refuses_an_oversized_exact_plan_and_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("fiq-cli-exact-{}", std::process::id()));
    let daemon = fiq_serve::Daemon::start(&fiq_serve::ServeOptions {
        addr: "127.0.0.1:0".into(),
        data_dir: dir.clone(),
        executors: 1,
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    let mut args = vec!["submit", "--addr", &addr];
    args.extend(OCEAN_EXACT);
    let (ok, out, err) = fiq(&args);
    assert!(!ok, "{out}");
    assert!(
        err.contains("daemon returned 400: cell 0 (ocean/all): exact collapse needs"),
        "{err}"
    );
    let (ok, out, err) = fiq(&["status", "--addr", &addr]);
    assert!(ok, "{err}");
    assert!(out.contains("preparations: 1 built, 0 reused"), "{out}");
    // The refused campaign held the only reference to its artifacts, so
    // the same submission builds them again instead of reusing them.
    let (ok, _, err) = fiq(&args);
    assert!(!ok && err.contains("exact collapse needs"), "{err}");
    let (ok, out, err) = fiq(&["status", "--addr", &addr]);
    assert!(ok, "{err}");
    assert!(out.contains("preparations: 2 built, 0 reused"), "{out}");
    fiq_serve::client::shutdown(&addr).unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A program whose golden run traps cannot be injected into: `fiq
/// campaign` exits 1 (not by a signal) and the daemon answers 400 with
/// the IR run's error, builds nothing, and keeps serving.
#[test]
fn a_trapping_golden_run_is_refused() {
    let dir = std::env::temp_dir().join(format!("fiq-cli-trap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("trap.mc");
    std::fs::write(
        &prog,
        "int vals[4]; int main() { int i = 0; while (1) { vals[i * 100000] = i; i += 1; } return 0; }",
    )
    .unwrap();
    let prog = prog.to_str().unwrap();
    let error = "golden IR run did not finish";
    for extra in [None, Some("--fast-forward")] {
        let out = Command::new(env!("CARGO_BIN_EXE_fiq"))
            .args(["campaign", prog, "--injections", "4"])
            .args(extra)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(out.stdout.is_empty());
        assert!(err.contains(error), "{err}");
    }

    let daemon = fiq_serve::Daemon::start(&fiq_serve::ServeOptions {
        addr: "127.0.0.1:0".into(),
        data_dir: dir.join("data"),
        executors: 1,
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    let (ok, _, err) = fiq(&["submit", prog, "--addr", &addr, "--divergence"]);
    assert!(!ok);
    assert!(
        err.contains("daemon returned 400") && err.contains(error),
        "{err}"
    );
    let (ok, out, err) = fiq(&["status", "--addr", &addr]);
    assert!(ok, "{err}");
    assert!(out.contains("preparations: 0 built, 0 reused"), "{out}");
    fiq_serve::client::shutdown(&addr).unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `fiq campaign` and `fiq_serve::prepare` + `run_campaign` from the same
/// `Submission` write the same record and divergence streams, across
/// every output-relevant field of the spec.
#[test]
fn campaign_matches_prepare_from_the_same_spec() {
    use fiq_core::{Category, Collapse, EngineOptions};
    let dir = std::env::temp_dir().join(format!("fiq-cli-spec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let kernel = dir.join("masky.mc");
    std::fs::write(
        &kernel,
        "int main() { int acc = 7; for (int i = 0; i < 6; i += 1) { \
         acc = (acc * 13 + i) & 255; acc = acc & 252; } print_i64(acc); return 0; }",
    )
    .unwrap();
    let kernel = kernel.to_str().unwrap();
    let (sampled, exact) = (Collapse::Sampled, Collapse::Exact);
    // (program, category, seed, injections, fast-forward, divergence,
    // collapse, threads)
    let rows = [
        ("libquantum", Category::Cmp, 3, 12, false, true, sampled, 1),
        ("libquantum", Category::All, 9, 10, true, true, sampled, 0),
        ("mcf", Category::Cmp, 4, 8, true, false, sampled, 1),
        ("mcf", Category::All, 11, 6, false, false, sampled, 0),
        (kernel, Category::All, 5, 1, true, true, exact, 1),
        (kernel, Category::All, 5, 1, false, false, exact, 0),
    ];
    for (i, &(prog, category, seed, injections, ff, div, collapse, threads)) in
        rows.iter().enumerate()
    {
        let path = |who: &str, kind: &str| dir.join(format!("{i}.{who}.{kind}.jsonl"));
        let (seed_s, inj_s, thr_s) = (
            seed.to_string(),
            injections.to_string(),
            threads.to_string(),
        );
        let (cli_rec, cli_div) = (path("cli", "records"), path("cli", "divergence"));
        let mut args = vec![
            "campaign",
            prog,
            "--category",
            category.name(),
            "--seed",
            &seed_s,
            "--injections",
            &inj_s,
            "--threads",
            &thr_s,
            "--records",
            cli_rec.to_str().unwrap(),
        ];
        if ff {
            args.push("--fast-forward");
        }
        if div {
            args.extend(["--divergence", cli_div.to_str().unwrap()]);
        }
        if collapse == Collapse::Exact {
            args.extend(["--collapse", "exact"]);
        }
        let (ok, _, err) = fiq(&args);
        assert!(ok, "row {i}: {err}");

        let source = match fiq_workloads::by_name(prog) {
            Some(w) => w.source.to_string(),
            None => std::fs::read_to_string(prog).unwrap(),
        };
        let sub = fiq_serve::Submission {
            name: prog.to_string(),
            source,
            category,
            injections,
            seed,
            threads,
            shards: 1,
            priority: 0,
            collapse,
            divergence: div,
            fast_forward: ff,
        };
        let prepared = fiq_serve::prepare(&sub).unwrap();
        let (lib_rec, lib_div) = (path("lib", "records"), path("lib", "divergence"));
        let opts = EngineOptions {
            records: Some(&lib_rec),
            divergence: div.then_some(lib_div.as_path()),
            fast_forward: prepared.fast_forward,
            early_exit: prepared.early_exit,
            collapse: prepared.collapse,
            ..EngineOptions::default()
        };
        fiq_core::run_campaign(&prepared.cells(), &prepared.cfg, &opts).unwrap();

        let read = |p: &std::path::Path| std::fs::read(p).unwrap();
        assert_eq!(read(&cli_rec), read(&lib_rec), "row {i}: records");
        if div {
            assert_eq!(read(&cli_div), read(&lib_div), "row {i}: divergence");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn telemetry_campaign_and_report_round_trip() {
    let dir = std::env::temp_dir().join(format!("fiq-cli-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let rec = dir.join("records.jsonl");
    let tel = dir.join("telemetry.jsonl");
    let (ok, _, err) = fiq(&[
        "campaign",
        "libquantum",
        "--category",
        "cmp",
        "--injections",
        "8",
        "--seed",
        "3",
        "--fast-forward",
        "--progress",
        "--records",
        rec.to_str().unwrap(),
        "--telemetry",
        tel.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    // The upgraded progress line carries throughput, ETA, and live
    // optimization counts, and always ends on the final done == planned
    // snapshot.
    assert!(err.contains("16/16 injections done (100%)"), "{err}");
    assert!(
        err.contains("eta") && err.contains("fast-forwarded"),
        "{err}"
    );

    let (ok, human, err) = fiq(&[
        "report",
        rec.to_str().unwrap(),
        "--telemetry",
        tel.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(
        human.contains("outcome") && human.contains("95% CI"),
        "{human}"
    );
    assert!(
        human.contains("speedup:") && human.contains("fast-forwarded"),
        "{human}"
    );

    let (ok, json, err) = fiq(&[
        "report",
        "--records",
        rec.to_str().unwrap(),
        "--telemetry",
        tel.to_str().unwrap(),
        "--json",
    ]);
    assert!(ok, "{err}");
    assert!(
        json.starts_with('{') && json.contains("\"report\":\"campaign\""),
        "{json}"
    );
    assert!(
        json.contains("\"ci95\":") && json.contains("\"attribution\":"),
        "{json}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn report_errors_cleanly() {
    let (ok, _, err) = fiq(&["report"]);
    assert!(!ok);
    assert!(err.contains("usage: fiq report"), "{err}");
    let (ok, _, err) = fiq(&["report", "/nonexistent/records.jsonl"]);
    assert!(!ok);
    assert!(err.contains("fiq:"), "{err}");
}

#[test]
fn fuzz_subcommand_is_deterministic_and_clean() {
    let args = ["fuzz", "--seed", "1", "--count", "5"];
    let (ok, a, err) = fiq(&args);
    assert!(ok, "{err}");
    assert!(
        a.contains("5 programs clean at O0,O1,O2,O3 (seed 1)"),
        "{a}"
    );
    let (ok, b, _) = fiq(&args);
    assert!(ok);
    assert_eq!(a, b, "fixed seed, byte-identical run");

    let (ok, out, err) = fiq(&[
        "fuzz",
        "--seed=4",
        "--count=2",
        "--opt-level",
        "2",
        "--oracle",
        "cross-level",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("2 programs clean at O2 (seed 4)"), "{out}");

    let (ok, _, err) = fiq(&["fuzz", "--oracle", "vibes"]);
    assert!(!ok);
    assert!(err.contains("unknown --oracle `vibes`"), "{err}");
    let (ok, _, err) = fiq(&["fuzz", "--opt-level", "7"]);
    assert!(!ok);
    assert!(err.contains("--opt-level expects 0..=3"), "{err}");
}

/// The digest-integrity oracle checked a state digest that no longer
/// exists; its name is now a usage error naming the oracles there are.
#[test]
fn removed_oracle_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_fiq"))
        .args(["fuzz", "--oracle", "digest-integrity", "--count", "1"])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(out.stdout.is_empty());
    assert!(
        err.contains("unknown --oracle `digest-integrity`")
            && err.contains("(opt-agreement|cross-level|snapshot-replay|injection)"),
        "{err}"
    );
}

#[test]
fn compiles_a_source_file() {
    let dir = std::env::temp_dir().join("fiq-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hello.mc");
    std::fs::write(&path, "int main() { print_i64(7 * 6); return 0; }").unwrap();
    let (ok, out, err) = fiq(&["run", path.to_str().unwrap()]);
    assert!(ok, "{err}");
    assert_eq!(out, "42\n");
}
