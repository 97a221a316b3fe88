//! `wire-conformance` over this repository itself: the README's wire table
//! names every message `wire.rs` declares, with its tag. The compiler
//! checks the code that handles the messages; nothing else checks the
//! table, so a tag changed in code alone fails here (and in CI's
//! `mgpu-lint --check`).

use std::path::Path;

use mgpu_lint::lints::wire;
use mgpu_lint::{Diagnostics, Workspace};

#[test]
fn the_readme_wire_table_names_every_message() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).expect("read the workspace");
    assert!(
        ws.file_ending("net/src/wire.rs").is_some() && ws.readme.is_some(),
        "no wire.rs or README.md under {root:?}"
    );
    let mut diag = Diagnostics::new();
    wire::check(&ws, &mut diag);
    assert!(diag.findings.is_empty(), "{:#?}", diag.findings);
}
