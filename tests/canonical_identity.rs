//! The dispatcher's canonicalisation does its work once — one replacement
//! free-variable set per substitution, one canonical form per distinct formula per
//! batch — and these tests pin that the shortcuts change no byte of what it computes:
//!
//! * every sequent the dispatcher inlines on the §7 suite substitutes and inlines
//!   exactly as the naive reference implementation (`crates/logic/tests/reference`);
//! * the keys the dispatcher stores for every suite obligation, computed through its
//!   batch-scoped memo at 1 and 4 threads, equal the unmemoised `SequentKey::of`.

#[path = "../crates/logic/tests/reference/mod.rs"]
mod reference;

use jahob_repro::jahob::batch::assemble_program_batch;
use jahob_repro::logic::norm::{definition_substitution, inline_definitions};
use jahob_repro::logic::subst::substitute;
use jahob_repro::logic::Sequent;
use jahob_repro::prelude::*;
use jahob_repro::provers::inst::apply_inst_hints;
use jahob_repro::provers::{store_path, LemmaLibrary, SequentKey};
use std::collections::BTreeSet;

/// The sequents the dispatcher inlines for each suite obligation, exactly as
/// `prove_one` builds them: the hint-selected sequent with its `inst` instances (when
/// the obligation has hints), then the full sequent with its instances.
fn suite_inlining_inputs() -> Vec<(Option<Sequent>, Sequent)> {
    let lemmas = LemmaLibrary::new();
    let mut inputs = Vec::new();
    for entry in suite::full_suite() {
        let (batch, _) = assemble_program_batch(entry.name, &entry.program, &lemmas);
        for e in batch.entries() {
            let ob = &e.obligation;
            inputs.push(if ob.hints.is_empty() {
                (None, ob.sequent.clone())
            } else {
                let selected = ob.hinted_sequent_with_lemmas(e.context.lemmas.named_lemmas());
                (
                    Some(apply_inst_hints(&selected, &ob.hints)),
                    apply_inst_hints(&ob.sequent, &ob.hints),
                )
            });
        }
    }
    inputs
}

#[test]
fn suite_inlining_matches_the_reference() {
    let inputs = suite_inlining_inputs();
    assert!(inputs.iter().any(|(hinted, _)| hinted.is_some()));
    let sequents = inputs
        .iter()
        .flat_map(|(hinted, full)| hinted.iter().chain([full]));
    let mut substituted = 0;
    for sequent in sequents {
        let sub = definition_substitution(&sequent.assumptions);
        assert_eq!(
            sub,
            reference::definition_substitution(&sequent.assumptions),
            "definition substitution of {}",
            sequent.describe()
        );
        for form in sequent.assumptions.iter().chain([&sequent.goal]) {
            assert_eq!(
                substitute(form, &sub),
                reference::substitute(form, &sub),
                "substituting into {form} of {}",
                sequent.describe()
            );
        }
        substituted += !sub.is_empty() as usize;
        assert_eq!(
            inline_definitions(sequent),
            reference::inline_definitions(sequent),
            "inlining {}",
            sequent.describe()
        );
    }
    assert!(
        substituted > 0,
        "the suite must exercise definitional inlining"
    );
}

/// A store field as the store writes it (backslash escapes for `\`, tab and line
/// breaks).
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

#[test]
fn dispatcher_keys_equal_the_unmemoised_keys() {
    // The `(sequent, hinted)` key fields every obligation's verdict record must carry.
    let expected: BTreeSet<(String, String)> = suite_inlining_inputs()
        .iter()
        .map(|(hinted, full)| {
            let hinted = match hinted {
                Some(h) => format!("={}", escape(SequentKey::of(h).repr())),
                None => "-".to_string(),
            };
            (escape(SequentKey::of(full).repr()), hinted)
        })
        .collect();
    assert!(!expected.is_empty());
    for threads in [1, 4] {
        let dir = std::env::temp_dir().join(format!(
            "jahob-canonical-identity-{}-{threads}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let verifier = Verifier::with_config(
            DispatcherConfig::builder()
                .threads(threads)
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush: false,
                })
                .build(),
        );
        verifier.verify_suite();
        verifier.flush().expect("flush the store");
        let store = std::fs::read_to_string(store_path(&dir)).expect("read the store");
        let stored: BTreeSet<(String, String)> = store
            .lines()
            .filter_map(|line| {
                let fields: Vec<&str> = line.split('\t').collect();
                (fields[0] == "V").then(|| (fields[2].to_string(), fields[3].to_string()))
            })
            .collect();
        assert_eq!(stored, expected, "threads = {threads}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
