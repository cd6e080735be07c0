//! `unsafe-allowlist`: `unsafe` appears only where it is audited.
//!
//! The workspace keeps `unsafe` confined to three audited sites. The PR 6
//! worker pool was deliberately built on scoped threads and mutex slots
//! instead of raw pointers, reserving `crates/core/src/pool.rs` as the
//! one place cross-thread hand-off tricks may land. The event-driven
//! server added `crates/net/src/sys.rs` — a thin `epoll`/`eventfd`
//! syscall shim whose every `unsafe` block cites a numbered invariant
//! in the module's rustdoc, reviewable as a unit. The build-memory test
//! `crates/core/tests/build_peak.rs` installs a counting global
//! allocator, which `GlobalAlloc` makes an `unsafe impl`; its rustdoc
//! states the one invariant it rests on. This rule turns that
//! policy into a diagnostic so an `unsafe` block cannot quietly land in
//! a codec or an executor.

use crate::model::{SourceFile, TokKind};
use crate::rules::{Finding, Rule};

pub struct UnsafeAllowlist;

const ID: &str = "unsafe-allowlist";

/// Files allowed to contain `unsafe` code.
const ALLOWED: &[&str] = &[
    // The worker pool owns all cross-thread hand-off; any future unsafe
    // (e.g. an uninitialized slot optimisation) is audited here.
    "crates/core/src/pool.rs",
    // The raw epoll/eventfd syscall shim behind the event-driven
    // server: every unsafe block cites a numbered invariant from the
    // module rustdoc (FFI signatures, pointer lifetimes, fd ownership).
    "crates/net/src/sys.rs",
    // The counting global allocator that measures the build's heap peak:
    // every method forwards the caller's pointer, layout and size to
    // `System` unchanged and only updates counters (invariant in the
    // file's rustdoc).
    "crates/core/tests/build_peak.rs",
];

impl Rule for UnsafeAllowlist {
    fn id(&self) -> &'static str {
        ID
    }

    fn explanation(&self) -> &'static str {
        "`unsafe` is permitted only in allowlisted files (crates/core/src/pool.rs, the \
         audited syscall shim crates/net/src/sys.rs and the counting allocator of \
         crates/core/tests/build_peak.rs); everywhere else the workspace stays 100% safe Rust"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if ALLOWED.contains(&file.rel.as_str()) {
            return;
        }
        let in_scope = file.rel.ends_with(".rs") || crate::rules::is_fixture(&file.rel);
        if !in_scope {
            return;
        }
        for (i, t) in file.toks.iter().enumerate() {
            if t.kind == TokKind::Ident && t.text == "unsafe" {
                let context = match file.text(i + 1) {
                    "{" => "block",
                    "fn" => "fn",
                    "impl" => "impl",
                    "trait" => "trait",
                    _ => "keyword",
                };
                out.push(Finding {
                    file: file.rel.clone(),
                    line: t.line,
                    rule: ID,
                    message: format!(
                        "`unsafe` {context} outside the allowlist — the workspace is safe Rust \
                         by policy outside the audited sites; move the code into an allowlisted \
                         module or justify an allowlist entry in rules/unsafe_allowlist.rs",
                    ),
                });
            }
        }
    }
}
