//! Golden digests of every published output.
//!
//! The quick `all` report and its CSV artifacts, and the `campaign --out`
//! trees of five scenarios at 1 and 2 threads, are each folded into an
//! FNV-1a digest and compared with `results/golden/digests.json`. That
//! file also records `power_campaign::MODEL_REV`, the revision of the
//! published numbers, and a checksum over its own contents:
//!
//! * an output that moves while `MODEL_REV` stays put fails, naming every
//!   artifact that moved;
//! * a `MODEL_REV` bump fails until the file is re-recorded;
//! * a missing, truncated or hand-edited file fails, and so does an
//!   artifact the file lists but no run produced (or the reverse).
//!
//! On any failure the test prints the recomputed file. Commit it only
//! when the change of output is deliberate, with `MODEL_REV` bumped.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use power_campaign::{run_campaign, Scenario, MODEL_REV};
use power_repro::scale;
use power_serve::json::Json;
use power_stats::hash::{fnv1a, Fnv1a};

#[path = "../../power-campaign/tests/common/mod.rs"]
mod common;
use common::tree;

/// The scenarios whose `--out` trees are pinned.
const SCENARIOS: [&str; 5] = ["paper_smoke", "accel_smoke", "gaming", "accel", "paper"];

/// The worker counts each scenario runs at.
const THREADS: [usize; 2] = [1, 2];

/// Artifact name → FNV-1a digest of its bytes.
type Digests = BTreeMap<String, u64>;

/// A recorded digest file.
#[derive(Debug, Clone, PartialEq)]
struct Golden {
    model_rev: u64,
    artifacts: Digests,
}

impl Golden {
    /// The checksum the file carries over its own contents.
    fn checksum(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.write_u64(self.model_rev);
        for (name, digest) in &self.artifacts {
            h.write_str(name);
            h.write_u64(*digest);
        }
        h.finish()
    }

    /// The file's text: one artifact per line, so a diff names what moved.
    fn render(&self) -> String {
        let mut out = format!(
            "{{\n  \"model_rev\": {},\n  \"checksum\": \"{:016x}\",\n  \"artifacts\": {{",
            self.model_rev,
            self.checksum()
        );
        for (i, (name, digest)) in self.artifacts.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}\n    \"{name}\": \"{digest:016x}\""));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses and verifies the file's text.
    fn parse(text: &str) -> Result<Golden, GoldenError> {
        let malformed = |reason: String| GoldenError::Malformed(reason);
        let doc = Json::parse(text).map_err(|e| malformed(e.to_string()))?;
        let model_rev = doc
            .get("model_rev")
            .and_then(Json::as_u64)
            .ok_or_else(|| malformed("no integer \"model_rev\"".into()))?;
        let checksum = doc
            .get("checksum")
            .and_then(Json::as_str)
            .and_then(hex)
            .ok_or_else(|| malformed("no 16-digit hex \"checksum\"".into()))?;
        let Some(Json::Object(entries)) = doc.get("artifacts") else {
            return Err(malformed("no \"artifacts\" object".into()));
        };
        let mut artifacts = Digests::new();
        for (name, value) in entries {
            let digest = value
                .as_str()
                .and_then(hex)
                .ok_or_else(|| malformed(format!("{name:?} is not a 16-digit hex digest")))?;
            artifacts.insert(name.clone(), digest);
        }
        let golden = Golden {
            model_rev,
            artifacts,
        };
        if golden.checksum() != checksum {
            return Err(GoldenError::HandEdited {
                recorded: checksum,
                computed: golden.checksum(),
            });
        }
        Ok(golden)
    }
}

fn hex(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Why the recorded digests do not vouch for the current outputs.
#[derive(Debug, PartialEq)]
enum GoldenError {
    /// The digest file could not be read.
    Missing(String),
    /// The digest file is not a complete, well-formed record.
    Malformed(String),
    /// The file's contents do not match its checksum.
    HandEdited { recorded: u64, computed: u64 },
    /// `MODEL_REV` moved, but the file still records the old revision.
    ModelRevNotRecorded { recorded: u64, current: u64 },
    /// The file lists an artifact that the run did not produce.
    MissingArtifact { artifact: String, threads: usize },
    /// The run produced an artifact that the file does not list.
    UnrecordedArtifact { artifact: String, threads: usize },
    /// Outputs moved while `MODEL_REV` did not.
    DigestsMoved {
        model_rev: u64,
        threads: usize,
        moved: Vec<String>,
    },
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoldenError::Missing(e) => write!(f, "digest file missing: {e}"),
            GoldenError::Malformed(e) => write!(f, "digest file malformed or truncated: {e}"),
            GoldenError::HandEdited { recorded, computed } => write!(
                f,
                "digest file hand-edited: checksum {recorded:016x} recorded, \
                 {computed:016x} over its contents"
            ),
            GoldenError::ModelRevNotRecorded { recorded, current } => write!(
                f,
                "MODEL_REV is {current} but the digest file records {recorded}: re-record it"
            ),
            GoldenError::MissingArtifact { artifact, threads } => {
                write!(f, "artifact {artifact} missing at {threads} thread(s)")
            }
            GoldenError::UnrecordedArtifact { artifact, threads } => write!(
                f,
                "artifact {artifact} produced at {threads} thread(s) but not recorded"
            ),
            GoldenError::DigestsMoved {
                model_rev,
                threads,
                moved,
            } => write!(
                f,
                "outputs moved at {threads} thread(s) with MODEL_REV unchanged at {model_rev}: {}",
                moved.join(", ")
            ),
        }
    }
}

/// Checks every run's digests (keyed by its worker count) against the
/// recorded file's text (`Err` when it could not be read).
fn check(
    recorded: &Result<String, String>,
    model_rev: u64,
    runs: &[(usize, Digests)],
) -> Result<(), GoldenError> {
    let text = recorded
        .as_ref()
        .map_err(|e| GoldenError::Missing(e.clone()))?;
    let golden = Golden::parse(text)?;
    if golden.model_rev != model_rev {
        return Err(GoldenError::ModelRevNotRecorded {
            recorded: golden.model_rev,
            current: model_rev,
        });
    }
    for (threads, digests) in runs {
        let threads = *threads;
        if let Some(artifact) = golden.artifacts.keys().find(|a| !digests.contains_key(*a)) {
            return Err(GoldenError::MissingArtifact {
                artifact: artifact.clone(),
                threads,
            });
        }
        if let Some(artifact) = digests.keys().find(|a| !golden.artifacts.contains_key(*a)) {
            return Err(GoldenError::UnrecordedArtifact {
                artifact: artifact.clone(),
                threads,
            });
        }
        let moved: Vec<String> = digests
            .iter()
            .filter(|(a, d)| golden.artifacts[*a] != **d)
            .map(|(a, _)| a.clone())
            .collect();
        if !moved.is_empty() {
            return Err(GoldenError::DigestsMoved {
                model_rev,
                threads,
                moved,
            });
        }
    }
    Ok(())
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("power-repro-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Digests every file under `root` as `<prefix>/<relative path>`.
fn digest_tree(prefix: &str, root: &Path, out: &mut Digests) {
    for (rel, bytes) in tree(root) {
        out.insert(format!("{prefix}/{rel}"), fnv1a(&bytes));
    }
}

/// The quick `all` report and its CSV artifacts.
fn all_digests() -> Digests {
    let dir = scratch_dir("all");
    let report = power_repro::reproduce(&scale::quick(), Some(&dir)).unwrap();
    let mut out = Digests::new();
    out.insert("all/stdout".into(), fnv1a(report.as_bytes()));
    digest_tree("all", &dir, &mut out);
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// Every pinned scenario's `--out` tree at `threads` workers.
fn campaign_digests(threads: usize) -> Digests {
    let mut out = Digests::new();
    for name in SCENARIOS {
        let path = workspace_root().join(format!("scenarios/{name}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let scenario = Scenario::parse(&text).unwrap();
        let dir = scratch_dir(&format!("{name}-t{threads}"));
        let report = run_campaign(&scenario, threads, &dir).unwrap();
        assert!(report.passed(), "{name}: {:?}", report.violations());
        digest_tree("campaign", &dir, &mut out);
        std::fs::remove_dir_all(&dir).ok();
    }
    out
}

#[test]
fn published_outputs_match_recorded_digests() {
    let all = all_digests();
    let runs: Vec<(usize, Digests)> = THREADS
        .iter()
        .map(|&threads| {
            let mut digests = all.clone();
            digests.extend(campaign_digests(threads));
            (threads, digests)
        })
        .collect();
    let path = workspace_root().join("results/golden/digests.json");
    let recorded = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()));
    let model_rev = u64::from(MODEL_REV);
    if let Err(e) = check(&recorded, model_rev, &runs) {
        let recomputed = Golden {
            model_rev,
            artifacts: runs[0].1.clone(),
        };
        panic!(
            "{e}\n\nrecomputed results/golden/digests.json (commit it only for a deliberate \
             output change, with MODEL_REV bumped):\n{}",
            recomputed.render()
        );
    }
}

fn sample() -> Golden {
    Golden {
        model_rev: 4,
        artifacts: [("all/stdout", 1u64), ("campaign/x/summary.json", 2)]
            .into_iter()
            .map(|(a, d)| (a.to_string(), d))
            .collect(),
    }
}

#[test]
fn a_recorded_file_round_trips_and_passes() {
    let g = sample();
    assert_eq!(Golden::parse(&g.render()), Ok(g.clone()));
    let runs = [(1, g.artifacts.clone()), (2, g.artifacts.clone())];
    assert_eq!(check(&Ok(g.render()), 4, &runs), Ok(()));
}

#[test]
fn a_moved_digest_is_named() {
    let g = sample();
    let mut moved = g.artifacts.clone();
    moved.insert("campaign/x/summary.json".into(), 3);
    let runs = [(1, g.artifacts.clone()), (2, moved)];
    assert_eq!(
        check(&Ok(g.render()), 4, &runs),
        Err(GoldenError::DigestsMoved {
            model_rev: 4,
            threads: 2,
            moved: vec!["campaign/x/summary.json".into()],
        })
    );
}

#[test]
fn a_model_rev_bump_needs_a_re_record() {
    let g = sample();
    let runs = [(1, g.artifacts.clone())];
    assert_eq!(
        check(&Ok(g.render()), 5, &runs),
        Err(GoldenError::ModelRevNotRecorded {
            recorded: 4,
            current: 5,
        })
    );
}

#[test]
fn a_missing_or_truncated_file_fails() {
    let g = sample();
    let runs = [(1, g.artifacts.clone())];
    assert!(matches!(
        check(&Err("gone".into()), 4, &runs),
        Err(GoldenError::Missing(_))
    ));
    let text = g.render();
    for cut in [0, 1, text.len() / 2, text.len() - 3] {
        assert!(
            matches!(
                check(&Ok(text[..cut].to_string()), 4, &runs),
                Err(GoldenError::Malformed(_))
            ),
            "cut at {cut}"
        );
    }
}

#[test]
fn a_hand_edited_file_fails() {
    let g = sample();
    let runs = [(1, g.artifacts.clone())];
    let edited = g
        .render()
        .replace("\"0000000000000002\"", "\"0000000000000003\"");
    assert!(matches!(
        check(&Ok(edited), 4, &runs),
        Err(GoldenError::HandEdited { .. })
    ));
    let edited = g.render().replace("\"model_rev\": 4", "\"model_rev\": 5");
    assert!(matches!(
        check(&Ok(edited), 5, &runs),
        Err(GoldenError::HandEdited { .. })
    ));
}

#[test]
fn a_missing_or_unrecorded_artifact_fails() {
    let g = sample();
    let mut fewer = g.artifacts.clone();
    fewer.remove("campaign/x/summary.json");
    assert_eq!(
        check(&Ok(g.render()), 4, &[(1, fewer)]),
        Err(GoldenError::MissingArtifact {
            artifact: "campaign/x/summary.json".into(),
            threads: 1,
        })
    );
    let mut more = g.artifacts.clone();
    more.insert("campaign/x/extra.csv".into(), 9);
    assert_eq!(
        check(&Ok(g.render()), 4, &[(2, more)]),
        Err(GoldenError::UnrecordedArtifact {
            artifact: "campaign/x/extra.csv".into(),
            threads: 2,
        })
    );
}
