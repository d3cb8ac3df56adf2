//! Regenerates **Figure 3**, **Figure 4** and **Table V** from one run of
//! the paper grid (six workloads × five categories × {LLFI, PINFI}):
//! writes `<out>/grid-seed<S>-n<N>.jsonl` and renders `fig3.txt`,
//! `fig4.txt` and `table5.txt` from its records. A rerun resumes the
//! record stream, so on a complete one it only re-renders.

use fiq_bench::{paper, ExperimentConfig};
use fiq_workloads::CATALOG;

fn main() -> Result<(), String> {
    let cfg = ExperimentConfig::from_env();
    let run = paper(&CATALOG.iter().collect::<Vec<_>>(), &cfg)?;
    eprintln!(
        "paper: {} of {} injections resumed from {}; preparations {}",
        run.resumed_tasks,
        run.total_tasks,
        run.records.display(),
        run.preparations
    );
    eprintln!(
        "paper: wrote fig3.txt, fig4.txt and table5.txt in {}",
        cfg.out.display()
    );
    Ok(())
}
