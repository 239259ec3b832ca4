//! Workspace-level smoke test of the umbrella crate's re-export surface: the Figure 7
//! scenario (verifying `List.addNew` of the sized list) must be reachable end-to-end
//! through every re-exported crate path, so a broken `pub use` in `src/lib.rs` or a
//! broken inter-crate dependency edge fails here even if the member crates' own tests
//! pass.

use jahob_repro::jahob::{render_figure15, suite, Verifier};

#[test]
fn umbrella_crate_verifies_the_sized_list_end_to_end() {
    // Figure 7: the sized list's addNew needs the syntactic prover plus specialised
    // reasoners (BAPA for the cardinality invariant, SMT for the ground residue).
    let program = suite::sized_list();
    let results = Verifier::new().verify(&program).methods;
    let add = results
        .iter()
        .find(|r| r.method == "List.addNew")
        .expect("List.addNew task exists");
    assert!(add.report.total_sequents >= 5);
    assert!(add.report.proved_sequents >= 2);
    let multi_prover = add
        .report
        .per_prover
        .values()
        .filter(|s| s.proved > 0)
        .count();
    assert!(
        multi_prover >= 2,
        "Figure 7 needs the combination of provers, report: {:?}",
        add.report
    );
    assert!(add.render().contains("sequents"));
}

#[test]
fn every_reexported_crate_is_reachable() {
    // Touch one item through each `pub use` of the umbrella crate, so dropping a
    // re-export (or a workspace dependency edge) is a compile failure of this test.
    use jahob_repro::{arith, automata, bapa, folp, frontend, logic, mona, provers, smt, vcgen};

    let form = logic::parse_form("x ~= null").expect("logic parser reachable");
    let sequent = logic::Sequent::new(vec![form.clone()], form);
    assert!(provers::syntactic_prover(&sequent));
    // The specialised provers each cover a different fragment; for reachability it is
    // enough that every one of them runs on the sequent and at least one proves it.
    let specialised = [
        smt::prove_sequent(&sequent, &smt::SmtOptions::default()).proved,
        bapa::prove_sequent(&sequent, &bapa::BapaOptions::default()).proved,
        folp::prove_sequent(&sequent, &folp::FolOptions::default()).proved,
        mona::prove_sequent(&sequent, &mona::MonaOptions::default()).proved,
    ];
    assert!(
        specialised.iter().any(|p| *p),
        "no specialised prover discharged the trivial sequent: {specialised:?}"
    );

    assert_eq!(arith::check(&[]), arith::Outcome::Sat);
    let dfa = automata::Dfa::new(1, 0, vec![true], vec![vec![0, 0]]);
    assert!(dfa.accepts(&[]));

    let program = jahob_repro::jahob::suite::sized_list();
    let tasks = frontend::program_tasks(&program);
    assert!(!tasks.is_empty());
    let obligations: Vec<vcgen::ProofObligation> = tasks[0].obligations();
    assert!(!obligations.is_empty());
}

#[test]
fn figure15_suite_table_renders_through_the_umbrella() {
    let rows = Verifier::new().verify_suite();
    assert!(rows.len() >= 5, "suite has at least five structures");
    let table = render_figure15(&rows);
    assert!(table.contains("Data Structure"));
    for row in &rows {
        assert!(table.contains(&row.name), "missing row {}", row.name);
    }
}
