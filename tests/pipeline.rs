//! Integration tests spanning the whole workspace: frontend → vcgen → provers → driver.

use jahob_repro::jahob::{suite, Verifier};
use jahob_repro::logic::{parse_form, Sequent};
use jahob_repro::provers::{Dispatcher, ObligationBatch, ProverContext, ProverId};
use jahob_repro::vcgen::ProofObligation;

fn ob(assumptions: &[&str], goal: &str) -> ProofObligation {
    ProofObligation {
        sequent: Sequent::new(
            assumptions
                .iter()
                .map(|a| parse_form(a).expect("parse"))
                .collect(),
            parse_form(goal).expect("parse"),
        ),
        hints: Vec::new(),
    }
}

#[test]
fn architecture_exposes_all_figure1_provers() {
    // Figure 1: syntactic prover, MONA, SMT (CVC3/Z3), FOL (SPASS/E), BAPA, interactive.
    let order = ProverId::default_order();
    assert_eq!(order.len(), 6);
    assert!(order.contains(&ProverId::Syntactic));
    assert!(order.contains(&ProverId::Mona));
    assert!(order.contains(&ProverId::Smt));
    assert!(order.contains(&ProverId::Fol));
    assert!(order.contains(&ProverId::Bapa));
    assert!(order.contains(&ProverId::Interactive));
}

#[test]
fn integrated_reasoning_spreads_sequents_over_provers() {
    // One batch containing a syntactic goal, an arithmetic goal, a cardinality goal and
    // a monadic set goal: each lands in a different prover.
    let obs = vec![
        ob(&["x ~= null"], "x ~= null"),
        ob(&["size = old_size + 1", "0 <= old_size"], "1 <= size"),
        ob(
            &[
                "size = card content",
                "x ~: content",
                "content1 = content Un {x}",
            ],
            "size + 1 = card content1",
        ),
        ob(
            &["ALL x. x : nodes --> x : alloc", "n : nodes"],
            "n : alloc",
        ),
    ];
    let report = Dispatcher::new()
        .prove_all(&ObligationBatch::uniform(&obs, &ProverContext::default()))
        .aggregate();
    assert!(report.succeeded(), "unproved: {:?}", report.unproved);
    let distinct_provers = report
        .per_prover
        .iter()
        .filter(|(_, s)| s.proved > 0)
        .count();
    assert!(
        distinct_provers >= 3,
        "expected >=3 provers, report: {report:?}"
    );
}

#[test]
fn sized_list_figure7_report_shape() {
    let program = suite::sized_list();
    let results = Verifier::new().verify(&program).methods;
    let add = results
        .iter()
        .find(|r| r.method == "List.addNew")
        .expect("List.addNew present");
    let text = add.render();
    assert!(text.contains("========"));
    assert!(text.contains("sequents"));
    // The verification condition splits into several sequents, as in Figure 7.
    assert!(add.report.total_sequents >= 5);
}

#[test]
fn whole_suite_produces_obligations_for_every_structure() {
    for entry in suite::full_suite() {
        let tasks = jahob_repro::frontend::program_tasks(&entry.program);
        let obligations: usize = tasks.iter().map(|t| t.obligations().len()).sum();
        assert!(
            obligations >= 2,
            "{} produced too few obligations ({obligations})",
            entry.name
        );
    }
}

#[test]
fn simple_structures_are_mostly_automated_end_to_end() {
    // The qualitative claim of the paper that this reproduction checks mechanically: the
    // integrated reasoner discharges the bulk of every structure's sequents
    // automatically (the residue corresponds to the paper's interactive tail, see
    // EXPERIMENTS.md).
    for program in [
        suite::singly_linked_list(),
        suite::cursor_list(),
        suite::spanning_tree(),
    ] {
        let results = Verifier::new().verify(&program).methods;
        let total: usize = results.iter().map(|r| r.report.total_sequents).sum();
        let proved: usize = results.iter().map(|r| r.report.proved_sequents).sum();
        assert!(total >= 2, "too few obligations ({total})");
        assert!(
            proved * 2 >= total,
            "automation below 1/2: {proved}/{total}"
        );
    }
}
