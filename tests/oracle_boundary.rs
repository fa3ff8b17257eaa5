//! The differential oracles stay out of the product. Only `casekit-bench`
//! and the workspace tests (the facade's `[dev-dependencies]`) may
//! depend on `casekit-oracle`; the workspace tables may list it. A
//! product crate that named it would put the seed engines back into the
//! product build, and a dev-dependency would compile that crate twice.

use std::path::Path;

const ORACLE: &str = "casekit-oracle";

/// The tables of `manifest` that name the oracle crate: the header of
/// each line (comments stripped) that mentions it.
fn tables_naming_oracle(manifest: &Path) -> Vec<String> {
    let text =
        std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{}: {e}", manifest.display()));
    let mut table = String::new();
    let mut found = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or_default().trim();
        if line.starts_with('[') {
            table = line.trim_matches(['[', ']']).to_string();
        }
        if line.contains(ORACLE) {
            found.push(table.clone());
        }
    }
    found
}

#[test]
fn only_bench_and_the_workspace_tests_depend_on_the_oracle() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|entry| entry.expect("readable entry").path())
        .collect();
    crates.sort();
    let mut products = 0;
    for dir in &crates {
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if matches!(name, "bench" | "oracle" | "vendor") {
            continue;
        }
        let tables = tables_naming_oracle(&dir.join("Cargo.toml"));
        assert!(
            tables.is_empty(),
            "crates/{name} names {ORACLE} in {tables:?}"
        );
        products += 1;
    }
    assert_eq!(products, 10, "product crates scanned: {crates:?}");

    for table in tables_naming_oracle(&root.join("Cargo.toml")) {
        assert!(
            table == "dev-dependencies" || table == "workspace.dependencies",
            "the facade names {ORACLE} in [{table}]"
        );
    }
    // The scan sees a dependency where there is one.
    let bench = tables_naming_oracle(&root.join("crates/bench/Cargo.toml"));
    assert_eq!(bench, ["dependencies"]);
}
