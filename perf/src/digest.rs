//! Per-op answer digests.
//!
//! `sql_scale` and `paper_replay` have no server to compare against a
//! serial twin, so their byte-for-byte reference is a committed list of
//! digests for the default seeds (`perf/golden/<workload>-<seed>.digests`).
//! Any other seed can be pinned with `--write-digests` and checked with
//! `--check-digests`.

use std::path::PathBuf;

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub fn golden_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden"))
        .join(format!("{workload}-{seed}.digests"))
}

fn render(ops: &[(String, u64)]) -> String {
    let mut out = String::new();
    for (i, (label, d)) in ops.iter().enumerate() {
        out.push_str(&format!("{i}\t{d:016x}\t{label}\n"));
    }
    out
}

fn write(workload: &str, seed: u64, ops: &[(String, u64)]) -> Result<PathBuf, String> {
    let path = golden_path(workload, seed);
    let dir = path.parent().expect("golden file has a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    std::fs::write(&path, render(ops)).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Compare `ops` (label and digest, in execution order) against the
/// committed list, over the ops both hold: a time-bounded run may stop
/// short of the list or run past it. Returns the number of ops compared
/// and the positions that differ. `Ok(None)` when nothing is committed
/// for this seed.
fn check(
    workload: &str,
    seed: u64,
    ops: &[(String, u64)],
) -> Result<Option<(usize, Vec<usize>)>, String> {
    let path = golden_path(workload, seed);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    let mut bad = Vec::new();
    let mut compared = 0;
    for (line, (label, digest)) in text.lines().zip(ops) {
        let mut parts = line.splitn(3, '\t');
        let (_, hex, want_label) = (parts.next(), parts.next(), parts.next());
        let want = hex
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("{}: malformed line {line:?}", path.display()))?;
        if want != *digest || want_label != Some(label.as_str()) {
            bad.push(compared);
        }
        compared += 1;
    }
    Ok(Some((compared, bad)))
}

/// What a run does with its per-op digests: write them out
/// (`--write-digests`), or hold them against the committed list when
/// this seed has one (`--check-digests` makes a missing list an error).
/// Returns the positions that differ.
pub fn hold(
    cfg: &crate::Config,
    ops: &[(String, u64)],
    notes: &mut Vec<String>,
) -> Result<Vec<usize>, String> {
    if cfg.write_digests {
        notes.push(format!(
            "wrote {}",
            write(&cfg.workload, cfg.seed, ops)?.display()
        ));
        return Ok(Vec::new());
    }
    match check(&cfg.workload, cfg.seed, ops)? {
        Some((compared, wrong)) => {
            notes.push(format!(
                "{compared} ops held against committed digests, {} differ",
                wrong.len()
            ));
            notes.extend(
                wrong
                    .iter()
                    .map(|i| format!("op {i} ({}) differs from its committed digest", ops[*i].0)),
            );
            Ok(wrong)
        }
        None if cfg.check_digests => Err(format!(
            "no committed digests for {} seed {}",
            cfg.workload, cfg.seed
        )),
        None => Ok(Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn rendered_digests_are_one_line_per_op() {
        let ops = vec![
            ("text2sql q1".to_owned(), 1u64),
            ("insert".to_owned(), 0xabcd),
        ];
        assert_eq!(
            render(&ops),
            "0\t0000000000000001\ttext2sql q1\n1\t000000000000abcd\tinsert\n"
        );
    }
}
