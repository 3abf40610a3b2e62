//! What a run records about itself: the environment, peak memory, and
//! the cross-run determinism record.

use crate::report::Outcome;
use crate::stats::Tail;
use std::path::{Path, PathBuf};

/// FNV-1a, for digests of deterministic outputs.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn u64(&mut self, x: u64) -> &mut Fnv {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The note printed beside a tail value: its percentile and samples.
pub fn tail_note(t: &Tail) -> String {
    if t.batches > 1 {
        format!(
            "p{:.1}+ per batch, median of {} batches of {} samples",
            t.pct, t.batches, t.n
        )
    } else {
        format!("p{:.1} of {} samples", t.pct, t.n)
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// in the working directory without leaving it; "unknown" elsewhere.
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return id.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// One line naming the machine and build the numbers came from.
pub fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "nproc={nproc} commit={} rustc=\"{}\"",
        commit(),
        env!("PERFBENCH_RUSTC_VERSION")
    )
}

/// Size and modification time of the running executable: a new build
/// gets a new identity, and with it a fresh determinism record.
fn exe_identity() -> Option<(PathBuf, String)> {
    let exe = std::env::current_exe().ok()?;
    let meta = std::fs::metadata(&exe).ok()?;
    let mtime = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?;
    Some((
        exe.parent()?.join("perfbench-records"),
        format!("exe {} {}", meta.len(), mtime.as_nanos()),
    ))
}

/// Compares this run's deterministic outputs (`lines`, one per job in
/// job order) with those of earlier runs of the same build, workload and
/// seed, recorded next to the executable. Any difference on the common
/// prefix is a violation; the longer record is kept.
pub fn check_record(workload: &str, seed: u64, lines: &[String], out: &mut Outcome) {
    let Some((dir, identity)) = exe_identity() else {
        eprintln!("note: no determinism record (executable not found)");
        return;
    };
    let path = dir.join(format!("{workload}-{seed}.txt"));
    let earlier: Vec<String> = std::fs::read_to_string(&path)
        .ok()
        .filter(|text| text.lines().next() == Some(identity.as_str()))
        .map(|text| text.lines().skip(1).map(str::to_string).collect())
        .unwrap_or_default();
    if let Some(i) = earlier.iter().zip(lines).position(|(a, b)| a != b) {
        out.violation(format!(
            "{workload} seed {seed} job {i} differs from an earlier run of this build:\n  \
             earlier {}\n  now     {}",
            earlier[i], lines[i]
        ));
    }
    if lines.len() > earlier.len() {
        let mut text = identity;
        for l in lines {
            text.push('\n');
            text.push_str(l);
        }
        text.push('\n');
        let tmp = path.with_extension("tmp");
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&tmp, text))
            .and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = written {
            eprintln!("note: determinism record not written: {e}");
        }
    }
}
