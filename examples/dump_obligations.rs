//! Dumps the proof obligations of one suite data structure.
//!
//! For every method of the chosen structure this prints each sequent produced by the
//! verification-condition generator (its label path, assumptions and goal) together with
//! the prover that discharged it, mirroring the per-sequent view a Jahob user gets when
//! debugging a failing verification (§3.5 "debug the verification process").
//!
//! Usage:
//!
//! ```text
//! cargo run --example dump_obligations -- "Singly-Linked List"
//! cargo run --example dump_obligations            # defaults to the sized list
//! ```

use jahob_repro::jahob::suite;
use jahob_repro::provers::{Dispatcher, LemmaLibrary, ObligationBatch};

fn main() {
    let wanted = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Sized List".to_string());
    let entry = suite::full_suite()
        .into_iter()
        .find(|e| e.name.eq_ignore_ascii_case(&wanted))
        .unwrap_or_else(|| {
            eprintln!("unknown structure {wanted:?}; available:");
            for e in suite::full_suite() {
                eprintln!("  {}", e.name);
            }
            std::process::exit(1);
        });

    let dispatcher = Dispatcher::new();
    for task in jahob_frontend::program_tasks(&entry.program) {
        println!("==== {} ====", task.qualified_name());
        let context = task.prover_context(&LemmaLibrary::new());
        for (i, ob) in task.obligations().iter().enumerate() {
            let label = if ob.sequent.labels.is_empty() {
                "<unlabelled>".to_string()
            } else {
                ob.sequent.labels.join(".")
            };
            let report = dispatcher.prove_one(ob, &context);
            let verdict = report
                .per_prover
                .iter()
                .find(|(_, s)| s.proved > 0)
                .map(|(id, _)| id.display_name().to_string())
                .unwrap_or_else(|| "UNPROVED".to_string());
            println!("-- sequent {i} [{label}] -> {verdict}");
            for a in &ob.sequent.assumptions {
                println!("     assume {a}");
            }
            println!("     |- {}", ob.sequent.goal);
        }
        // Also print the Figure 7 style summary for the method.
        let obligations = task.obligations();
        let report = dispatcher
            .prove_all(&ObligationBatch::uniform(&obligations, &context))
            .aggregate();
        println!("{}", report.render(&task.qualified_name()));
    }
}
