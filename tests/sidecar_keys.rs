//! The committed provenance sidecars reproduce from the code as it stands.
//!
//! Every `results/<name>.json` next to a `results/<name>.csv` is a sweep
//! sidecar. Each of its runs records the spec line that produced it and
//! the cache key the engine filed it under; the key must be the one
//! `CacheKey::for_run` computes from that spec today. A change to the spec
//! or config rendering that moves cache keys therefore fails here until the
//! sidecars are regenerated.

use std::path::{Path, PathBuf};

use emx::sweep::{provenance, CacheKey, RunSpec};

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .canonicalize()
        .expect("results directory exists")
}

fn sweep_sidecars() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(results_dir())
        .expect("readable results directory")
        .map(|e| e.expect("readable results entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .filter(|p| p.with_extension("csv").exists())
        .collect();
    files.sort();
    files
}

/// The string value of `"name": "..."` in one sidecar line. Spec lines and
/// hex keys contain no characters JSON escapes.
fn string_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{name}\": \""))? + name.len() + 5;
    let len = line[start..].find('"')?;
    let value = &line[start..start + len];
    assert!(!value.contains('\\'), "escaped {name} in {line}");
    Some(value)
}

#[test]
fn every_sidecar_key_matches_its_spec() {
    let sidecars = sweep_sidecars();
    assert!(!sidecars.is_empty(), "no committed sweep sidecars found");
    for path in sidecars {
        let name = path.display();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains(&format!("\"schema\": \"{}\",", provenance::SCHEMA)),
            "{name}: not an {} sidecar",
            provenance::SCHEMA
        );
        let mut runs = 0;
        for line in text.lines().filter(|l| l.contains("\"key\": ")) {
            let spec: RunSpec = string_field(line, "spec")
                .unwrap_or_else(|| panic!("{name}: run without a spec: {line}"))
                .parse()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let key = string_field(line, "key").unwrap();
            assert_eq!(
                key,
                CacheKey::for_run(&spec, &spec.machine_config()).hex(),
                "{name}: stale cache key for {spec}"
            );
            runs += 1;
        }
        assert!(runs > 0, "{name}: sidecar records no runs");
    }
}
