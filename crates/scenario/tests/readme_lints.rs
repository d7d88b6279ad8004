//! README's lint-code table is the one home of each lint's summary and
//! example trigger, so it must list exactly the registry's lints: same
//! codes, names and default severities, in registry order.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants

#[test]
fn readme_lint_table_lists_the_registry_in_order() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(path).expect("README present");
    let section = &readme[readme.find("### Lint codes").expect("lint-code section")..];
    let rows: Vec<[String; 3]> = section
        .lines()
        .skip_while(|l| !l.starts_with("| `"))
        .take_while(|l| l.starts_with("| `"))
        .map(|l| {
            let cells: Vec<&str> = l.split('|').map(str::trim).collect();
            [1, 2, 3].map(|i| cells[i].trim_matches('`').to_owned())
        })
        .collect();
    let registry: Vec<[String; 3]> = wsnem_scenario::diag::ALL
        .iter()
        .map(|l| [l.code.to_owned(), l.name.to_owned(), l.severity.to_string()])
        .collect();
    assert_eq!(rows, registry);
}
