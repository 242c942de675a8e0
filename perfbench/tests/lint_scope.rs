//! Host-clock reads stay in one reviewed site: `sbx-lint`'s `wall-clock`
//! rule, applied to the benchmark's own sources, finds nothing, and only
//! `src/clock.rs` carries allow markers for it.

use std::path::Path;

#[test]
fn host_clock_reads_stay_in_clock_rs() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files: Vec<_> = std::fs::read_dir(&src)
        .expect("read src/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert!(files.len() > 1);
    for path in files {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("file name");
        let text = std::fs::read_to_string(&path).expect("read source");
        let rel = format!("perfbench/src/{name}");
        let findings: Vec<_> = sbx_lint::lint_source(&rel, &text)
            .into_iter()
            .filter(|f| f.rule == "wall-clock" || f.rule == "unused-allow")
            .collect();
        assert!(findings.is_empty(), "{findings:?}");
        if name != "clock.rs" {
            assert!(
                !text.contains("allow(wall-clock"),
                "{rel} reads a host clock outside clock.rs"
            );
        }
    }
}
