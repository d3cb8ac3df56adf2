//! Hostile streams: truncated, bit-flipped and duplicated-line record,
//! telemetry and divergence streams fed to `fiq report`
//! (`CampaignReport::build`) and to `--resume`. Nothing may panic, and
//! the only acceptable results are:
//!
//! * **report** — an error, or (for a truncation) exactly the report of
//!   the stream's complete-line prefix. A duplicated record or timeline
//!   line is an error: per-task lines must advance in task order. A
//!   duplicated telemetry line may count one more event but leaves every
//!   cell's figures unchanged. A bit flip that keeps its line well formed
//!   can change a value no parser can tell from a real one, so flips are
//!   held to "error or a report", without a panic.
//! * **resume** — an error, or final record and divergence streams made
//!   of a prefix of the hostile stream's lines followed by the
//!   uninterrupted run's lines: resume keeps a shorter valid prefix and
//!   re-executes the rest.

use fiq_core::{run_campaign, CampaignReport, Category, Collapse, EngineOptions};
use fiq_serve::{prepare, Prepared, Submission};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// Store-then-reduce kernel: its timelines are born, masked, and never
/// born within one campaign, so every stream has varied lines.
const KERNEL: &str = "
int vals[16];
int main() {
  int s = 0;
  for (int r = 0; r < 4; r += 1) {
    int seed = 3 + r;
    for (int i = 0; i < 16; i += 1) {
      seed = (seed * 1103515245 + 12345) & 2147483647;
      vals[i] = seed;
    }
    for (int i = 0; i < 16; i += 1) s += vals[i] & 1;
  }
  print_i64(s);
  return 0;
}";

fn prepared() -> Prepared {
    prepare(&Submission {
        name: "kernel".into(),
        source: KERNEL.into(),
        category: Category::All,
        injections: 5,
        seed: 21,
        threads: 1,
        shards: 1,
        priority: 0,
        collapse: Collapse::Sampled,
        divergence: true,
        fast_forward: true,
    })
    .expect("kernel prepares")
}

/// The three stream paths of one run.
struct Streams {
    dir: PathBuf,
}

impl Streams {
    fn new(name: &str) -> Streams {
        let dir = std::env::temp_dir().join(format!("fiq-hostile-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Streams { dir }
    }

    fn path(&self, kind: Kind) -> PathBuf {
        self.dir.join(format!("{}.jsonl", kind.name()))
    }

    fn run(&self, prepared: &Prepared, resume: bool) -> Result<(), String> {
        let (records, telemetry, divergence) = (
            self.path(Kind::Records),
            self.path(Kind::Telemetry),
            self.path(Kind::Divergence),
        );
        let opts = EngineOptions {
            records: Some(&records),
            telemetry: Some(&telemetry),
            divergence: Some(&divergence),
            resume,
            fast_forward: prepared.fast_forward,
            early_exit: prepared.early_exit,
            collapse: prepared.collapse,
            ..EngineOptions::default()
        };
        run_campaign(&prepared.cells(), &prepared.cfg, &opts).map(drop)
    }

    fn report(&self) -> Result<String, String> {
        CampaignReport::build(
            &self.path(Kind::Records),
            Some(&self.path(Kind::Telemetry)),
            Some(&self.path(Kind::Divergence)),
        )
        .map(|r| r.to_json().to_string())
    }

    fn write(&self, kind: Kind, text: &str) {
        std::fs::write(self.path(kind), text).unwrap();
    }

    fn read(&self, kind: Kind) -> String {
        std::fs::read_to_string(self.path(kind)).unwrap()
    }
}

impl Drop for Streams {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Records,
    Telemetry,
    Divergence,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Records, Kind::Telemetry, Kind::Divergence];

    fn name(self) -> &'static str {
        match self {
            Kind::Records => "records",
            Kind::Telemetry => "telemetry",
            Kind::Divergence => "divergence",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Damage {
    Truncated,
    Flipped,
    Duplicated,
}

/// Hostile copies of `text`: cut just before, at and after every line
/// end and in the middle of every line; with one to three random bits
/// flipped; and with each line after the header repeated once.
fn hostile(text: &str, rng: &mut StdRng) -> Vec<(Damage, String)> {
    let mut out = Vec::new();
    let mut start = 0;
    for line in text.split_inclusive('\n') {
        let end = start + line.len();
        for cut in [start + line.len() / 2, end - 2, end - 1, end] {
            if text.is_char_boundary(cut) {
                out.push((Damage::Truncated, text[..cut].to_string()));
            }
        }
        start = end;
    }
    for _ in 0..40 {
        let mut bytes = text.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..=3) {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] ^= 1 << rng.gen_range(0..8);
        }
        // The readers take text; a flip that breaks UTF-8 is a read
        // error before any parser runs.
        if let Ok(flipped) = String::from_utf8(bytes) {
            out.push((Damage::Flipped, flipped));
        }
    }
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    for i in 1..lines.len() {
        let mut dup = lines[..=i].concat();
        dup.push_str(lines[i]);
        dup.push_str(&lines[i + 1..].concat());
        out.push((Damage::Duplicated, dup));
    }
    out
}

/// The complete lines of `text` (a torn tail is not a line).
fn complete_lines(text: &str) -> Vec<&str> {
    text.split_inclusive('\n')
        .filter_map(|l| l.strip_suffix('\n'))
        .collect()
}

/// True when `found` is a prefix of `hostile`'s complete lines followed
/// by the rest of `reference`.
fn is_prefix_then_reference(found: &str, hostile: &str, reference: &str) -> bool {
    let (f, h, r) = (
        complete_lines(found),
        complete_lines(hostile),
        complete_lines(reference),
    );
    f.len() == r.len()
        && (0..=f.len().min(h.len()))
            .take_while(|&k| k == 0 || f[k - 1] == h[k - 1])
            .any(|k| f[k..] == r[k..])
}

/// The report's per-cell figures (everything but the engine section,
/// whose event tally a duplicated event line may raise).
fn cells_of(report: &str) -> String {
    let v = fiq_core::json::Json::parse(report).unwrap();
    v.get("cells").unwrap().to_string()
}

#[test]
fn hostile_streams_fail_cleanly_or_keep_a_valid_prefix() {
    let prepared = prepared();
    let reference = Streams::new("reference");
    reference.run(&prepared, false).unwrap();
    let ref_report = reference.report().unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    let mut resumed_ok = 0;
    for kind in Kind::ALL {
        let original = reference.read(kind);
        for (i, (damage, text)) in hostile(&original, &mut rng).into_iter().enumerate() {
            let case = format!("{} {damage:?} #{i}", kind.name());
            let s = Streams::new(&format!("{}-{i}", kind.name()));
            for k in Kind::ALL {
                s.write(k, &reference.read(k));
            }
            s.write(kind, &text);

            // The report.
            match (damage, s.report()) {
                (_, Err(_)) => {}
                (Damage::Truncated, Ok(report)) => {
                    let prefix = Streams::new(&format!("{}-{i}-prefix", kind.name()));
                    for k in Kind::ALL {
                        prefix.write(k, &s.read(k));
                    }
                    let whole = text.rfind('\n').map_or(0, |e| e + 1);
                    prefix.write(kind, &text[..whole]);
                    assert_eq!(
                        prefix.report().as_ref(),
                        Ok(&report),
                        "{case}: not the prefix's report"
                    );
                }
                (Damage::Duplicated, Ok(report)) => {
                    assert_eq!(kind, Kind::Telemetry, "{case}: repeated task line accepted");
                    assert_eq!(cells_of(&report), cells_of(&ref_report), "{case}");
                }
                (Damage::Flipped, Ok(_)) => {}
            }

            // Resume over the same damage.
            if s.run(&prepared, true).is_err() {
                continue;
            }
            resumed_ok += 1;
            for k in [Kind::Records, Kind::Divergence] {
                let hostile_k = if k == kind {
                    text.as_str()
                } else {
                    &reference.read(k)
                };
                assert!(
                    is_prefix_then_reference(&s.read(k), hostile_k, &reference.read(k)),
                    "{case}: resumed {} is not a hostile prefix plus the reference",
                    k.name()
                );
            }
            // The resumed streams are themselves reportable (or cleanly
            // refused), never a panic.
            let _ = s.report();
        }
    }
    assert!(resumed_ok > 0, "every resume was refused");
}

#[test]
fn report_rejects_worker_indices_outside_the_header() {
    let prepared = prepared();
    let s = Streams::new("workers");
    s.run(&prepared, false).unwrap();
    assert!(s.report().is_ok());
    let telemetry = s.read(Kind::Telemetry);
    let header = telemetry.lines().next().unwrap();
    let workers = fiq_core::json::Json::parse(header)
        .unwrap()
        .get("workers")
        .and_then(fiq_core::json::Json::as_u64)
        .unwrap();
    let first_worker = telemetry
        .lines()
        .find(|l| l.starts_with(r#"{"record":"worker","worker":0,"#))
        .expect("a worker line");
    let with = |header_workers: u64, index: &str| {
        let head = header.replacen(
            &format!(r#""workers":{workers}"#),
            &format!(r#""workers":{header_workers}"#),
            1,
        );
        let line = first_worker.replacen(r#""worker":0"#, &format!(r#""worker":{index}"#), 1);
        telemetry
            .replacen(header, &head, 1)
            .replacen(first_worker, &line, 1)
    };
    for (header_workers, index) in [
        // Past `usize` arithmetic: `w + 1` used to overflow.
        (workers, u64::MAX.to_string()),
        // A multi-terabyte list if sized from the line.
        (workers, "1000000000000".to_string()),
        // One past the header's count.
        (workers, workers.to_string()),
        // Within the header's count, but skipping ahead of the lines.
        (workers + 3, (workers + 1).to_string()),
    ] {
        s.write(Kind::Telemetry, &with(header_workers, &index));
        let err = s.report().expect_err(&index);
        assert!(err.contains("worker index"), "{index}: {err}");
    }
    // One line past the header's count, in order after the real ones.
    let last_worker = telemetry
        .lines()
        .rfind(|l| l.starts_with(r#"{"record":"worker","#))
        .unwrap();
    let extra = format!(
        r#"{last_worker}{}{{"record":"worker","worker":{workers},"tasks":0}}"#,
        "\n"
    );
    s.write(Kind::Telemetry, &telemetry.replacen(last_worker, &extra, 1));
    let err = s.report().unwrap_err();
    assert!(err.contains("worker index"), "{err}");
    // A float index is not an integer at all.
    s.write(Kind::Telemetry, &with(workers, "1e12"));
    assert!(s.report().is_err());
    // The untouched stream still reports.
    s.write(Kind::Telemetry, &with(workers, "0"));
    assert!(s.report().is_ok());
}
