//! The Figure 7 scenario: verifying the sized list's `addNew` method, whose verification
//! condition needs several different reasoners (the syntactic prover for the trivial
//! conjuncts, ground SMT/FOL reasoning for the heap updates, and the BAPA decision
//! procedure for the cardinality invariant `size = card content`).
//!
//! Run with `cargo run --example sized_list`.

use jahob_repro::prelude::*;

fn main() {
    let program = suite::sized_list();
    for result in Verifier::new().verify(&program).methods {
        println!("{}", result.render());
        let provers_used: Vec<String> = result
            .report
            .per_prover
            .iter()
            .filter(|(_, s)| s.proved > 0)
            .map(|(id, s)| format!("{id}: {}", s.proved))
            .collect();
        println!(
            "provers used for {}: {}\n",
            result.method,
            provers_used.join(", ")
        );
    }
}
