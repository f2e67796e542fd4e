//! Pins the figure job graph: every job's name, group, dependencies,
//! smoke flag and declared sampling spec, in registration order.
//!
//! Seeds derive from job names, so a renamed or reordered job silently
//! moves a capture's seed; this test catches that in milliseconds
//! instead of in a full `repro --check`. The snapshot is the `{:#?}`
//! rendering of [`iat_bench::jobs::registry`]; when the graph changes
//! on purpose, regenerate `tests/snapshots/job_graph.txt` from that
//! rendering and review the diff.

#[test]
fn job_graph_matches_snapshot() {
    let actual = format!("{:#?}\n", iat_bench::jobs::registry());
    let expected = include_str!("snapshots/job_graph.txt");
    if actual != expected {
        let (line, (want, got)) = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((expected.lines().count().min(actual.lines().count()), ("<end>", "<end>")));
        panic!(
            "job graph differs from tests/snapshots/job_graph.txt at line {}:\n  snapshot: {want}\n  registry: {got}",
            line + 1
        );
    }
}
