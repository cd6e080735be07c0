//! pragma fixture: tilde-marked lines must each yield the named finding;
//! everything else must stay silent (the suppressed unsafe-allowlist
//! finding is asserted separately). Never compiled.

unsafe fn suppressed(p: *const u8) -> u8 { // cpqx-analyze: allow(unsafe-allowlist): fixture — caller passes a live pointer
    *p
}

// cpqx-analyze: allow(no-such-rule): whatever //~ pragma
fn after_unknown_rule() {}

// cpqx-analyze: allow(unsafe-allowlist) //~ pragma
unsafe fn unjustified(p: *const u8) -> u8 { //~ unsafe-allowlist
    *p
}

// cpqx-analyze: allow(codec-hygiene): nothing here ever fires //~ pragma
fn unused_suppression() {}

// cpqx-analyze: this is not the allow grammar //~ pragma
fn after_malformed() {}
