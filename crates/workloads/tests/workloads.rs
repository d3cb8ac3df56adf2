//! Workload validation: every benchmark compiles, runs to completion at
//! both levels, produces identical output, and has a sensible dynamic
//! size for injection campaigns.

use fiq_asm::{run_program, MachOptions};
use fiq_interp::{run_module, InterpOptions};
use fiq_mem::RunStatus;
use fiq_workloads::CATALOG;

fn interp_opts() -> InterpOptions {
    InterpOptions {
        max_steps: 100_000_000,
        ..InterpOptions::default()
    }
}

fn mach_opts() -> MachOptions {
    MachOptions {
        max_steps: 400_000_000,
    }
}

#[test]
fn all_workloads_compile_and_agree_across_levels() {
    for w in &CATALOG {
        let c = w.compile().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let ir = run_module(&c.module, interp_opts()).unwrap();
        assert!(
            ir.finished(),
            "{}: IR run {:?}\noutput: {}",
            w.name,
            ir.status,
            ir.output
        );
        let asm = run_program(&c.program, mach_opts()).unwrap();
        assert_eq!(
            asm.status,
            RunStatus::Finished,
            "{}: asm run failed (partial output: {})",
            w.name,
            asm.output
        );
        assert_eq!(
            ir.output, asm.output,
            "{}: levels must produce identical digests",
            w.name
        );
        assert!(
            !ir.output.is_empty(),
            "{}: workload must print a digest",
            w.name
        );
    }
}

#[test]
fn workloads_have_campaign_scale_dynamic_counts() {
    for w in &CATALOG {
        let c = w.compile().unwrap();
        let ir = run_module(&c.module, interp_opts()).unwrap();
        assert!(
            (40_000..20_000_000).contains(&ir.steps),
            "{}: {} dynamic IR instructions is out of campaign range",
            w.name,
            ir.steps
        );
    }
}

#[test]
fn workload_outputs_are_distinct() {
    // Sanity: different benchmarks print different digests (catches
    // copy-paste errors in the catalog).
    let mut outputs = Vec::new();
    for w in &CATALOG {
        let c = w.compile().unwrap();
        let ir = run_module(&c.module, interp_opts()).unwrap();
        assert!(
            !outputs.contains(&ir.output),
            "{}: duplicate output digest",
            w.name
        );
        outputs.push(ir.output);
    }
}

#[test]
fn ablation_options_compile_everywhere() {
    use fiq_backend::LowerOptions;
    for w in &CATALOG {
        for (fold_gep, use_callee_saved) in
            [(true, true), (false, true), (true, false), (false, false)]
        {
            let opts = LowerOptions {
                fold_gep,
                use_callee_saved,
            };
            let c = w
                .compile_with(opts)
                .unwrap_or_else(|e| panic!("{} {opts:?}: {e}", w.name));
            let asm = run_program(&c.program, mach_opts()).unwrap();
            assert_eq!(asm.status, RunStatus::Finished, "{} with {opts:?}", w.name);
        }
    }
}

/// Golden-digest snapshots: any semantic change anywhere in the pipeline
/// (front end, optimizer, interpreter) shows up here first. Both levels
/// are already asserted identical elsewhere, so pinning the IR output is
/// enough.
#[test]
fn golden_digests_are_pinned() {
    let expected = [
        ("bzip2", "3397\n10848\n0\n3487056483\n"),
        (
            "libquantum",
            "1.000000e0\n5.000000e-1\n4.410340e-1\n5.000000e-1\n4.976212e-1\n\
             5.000000e-1\n5.000000e-1\n5.000000e-1\n5.000000e-1\n440041\n",
        ),
        (
            "ocean",
            "4.385625e0\n-2.617970e-3\n5.828933e-1\n-7.759667e-1\n641583324\n",
        ),
        ("hmmer", "250\n4383\n967204716\n"),
        ("mcf", "34\n565\n24\n125445170\n"),
        ("raytrace", "4.617307e2\n415182015\n6.773896e-1\n"),
    ];
    for (name, want) in expected {
        let c = fiq_workloads::by_name(name).unwrap().compile().unwrap();
        let r = run_module(&c.module, interp_opts()).unwrap();
        assert_eq!(r.output, want, "{name}: golden digest changed");
    }
}
