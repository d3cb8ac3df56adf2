//! The paper pipeline (`fiq_bench::paper`) on a two-workload grid: every
//! rendered cell equals a full-replay campaign of that cell alone at any
//! thread count, and a rerun on the complete record stream executes no
//! task and renders the same bytes.

use fiq_bench::{paper, ExperimentConfig};
use fiq_core::{llfi_campaign, pinfi_campaign, profile_llfi, profile_pinfi, Category};
use fiq_workloads::by_name;

/// bzip2 has no PINFI cast candidates, so the grid holds a one-sided cell.
const WORKLOADS: [&str; 2] = ["bzip2", "raytrace"];

fn renders(cfg: &ExperimentConfig) -> Vec<Vec<u8>> {
    ["fig3.txt", "fig4.txt", "table5.txt"]
        .iter()
        .map(|f| std::fs::read(cfg.out.join(f)).unwrap())
        .collect()
}

#[test]
fn grid_cells_equal_full_replay_and_a_rerun_only_renders() {
    let workloads: Vec<_> = WORKLOADS.iter().map(|w| by_name(w).unwrap()).collect();
    let camp = ExperimentConfig {
        injections: 6,
        seed: 7,
        ..ExperimentConfig::default()
    }
    .campaign();
    let mut alone = Vec::new();
    for w in &workloads {
        let c = w.compile().unwrap();
        let lp = profile_llfi(&c.module, fiq_interp::InterpOptions::default()).unwrap();
        let pp = profile_pinfi(&c.program, fiq_asm::MachOptions::default()).unwrap();
        for cat in Category::ALL {
            let l = llfi_campaign(&c.module, &lp, cat, &camp).unwrap();
            let p = pinfi_campaign(&c.program, &pp, cat, &camp).unwrap();
            alone.push(((w.name, "llfi", cat.name()), l.counts));
            alone.push(((w.name, "pinfi", cat.name()), p.counts));
        }
    }

    let mut first_renders = None;
    for threads in [1, 2] {
        let out = std::env::temp_dir().join(format!("fiq-grid-{}-t{threads}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let cfg = ExperimentConfig {
            injections: 6,
            seed: 7,
            threads,
            out,
        };
        let run = paper(&workloads, &cfg).unwrap();
        assert_eq!(run.resumed_tasks, 0);
        assert_eq!(run.preparations.to_string(), r#"{"built":2,"reused":8}"#);
        assert_eq!(run.report.cells.len(), alone.len());
        for (cell, (at, counts)) in run.report.cells.iter().zip(&alone) {
            let cell_at = (
                cell.label.as_str(),
                cell.tool.as_str(),
                cell.category.as_str(),
            );
            assert_eq!(&cell_at, at);
            assert_eq!(&cell.counts, counts, "{at:?} at threads {threads}");
        }

        let bytes = renders(&cfg);
        let fig4 = String::from_utf8_lossy(&bytes[1]);
        assert!(fig4.contains("(no PINFI candidates)"), "{fig4}");
        let again = paper(&workloads, &cfg).unwrap();
        assert_eq!(
            again.resumed_tasks, again.total_tasks,
            "the rerun executed tasks"
        );
        assert_eq!(renders(&cfg), bytes, "the rerun rendered other bytes");
        assert_eq!(first_renders.get_or_insert_with(|| bytes.clone()), &bytes);
        std::fs::remove_dir_all(&cfg.out).unwrap();
    }
}

#[test]
fn bad_flags_are_errors() {
    let parse = |args: &[&str]| ExperimentConfig::from_args(args.iter().map(|a| a.to_string()));
    let cfg = parse(&["--seed", "9", "--full", "--threads", "2", "--out", "o"]).unwrap();
    assert_eq!((cfg.seed, cfg.injections, cfg.threads), (9, 1000, 2));
    assert_eq!(cfg.out, std::path::PathBuf::from("o"));
    for bad in [
        &["--injections", "many"][..],
        &["--seed"],
        &["--threads", "-1"],
        &["--json", "x.json"],
        &["--no-fold-gep"],
    ] {
        let err = parse(bad).unwrap_err();
        assert!(err.contains(bad[0]), "{bad:?}: {err}");
    }
}
