//! Oracle tests for capture-avoiding substitution and definitional inlining: the
//! library must produce exactly what the naive reference in `reference/mod.rs`
//! produces — the same renamed binders, the same fresh names, the same resolved
//! chains — on hand-picked capture cases and on generated formulas and
//! substitutions.

mod reference;

use jahob_logic::form::{Binder, Form, Ident};
use jahob_logic::norm::{definition_substitution, inline_definitions};
use jahob_logic::parser::parse_form;
use jahob_logic::subst::{substitute, Subst};
use jahob_logic::types::Type;
use jahob_logic::Sequent;
use proptest::prelude::*;

/// The variable pool. Binders and replacements draw from the same names, so bound
/// variables regularly occur free in replacements; `x_1` and `x_2` are the names
/// `fresh_name` picks for `x`, so renamed binders can collide with substituted keys.
const POOL: [&str; 6] = ["x", "y", "z", "x_1", "x_2", "asg$1"];

fn pool_var() -> impl Strategy<Value = Ident> {
    (0..POOL.len()).prop_map(|i| POOL[i].to_string())
}

fn arb_binder() -> impl Strategy<Value = Binder> {
    prop_oneof![
        Just(Binder::Forall),
        Just(Binder::Exists),
        Just(Binder::Lambda),
        Just(Binder::Comprehension),
    ]
}

/// Formulas over the pool with binders of one to three variables (repeats allowed,
/// so a binder can shadow itself) nested up to three deep.
fn arb_form() -> BoxedStrategy<Form> {
    let leaf = prop_oneof![
        pool_var().prop_map(Form::Var),
        Just(Form::null()),
        (0..3i64).prop_map(Form::int),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::eq(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::and(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::app(a, vec![b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::plus(a, b)),
            (
                arb_binder(),
                proptest::collection::vec(pool_var(), 1..4),
                inner.clone()
            )
                .prop_map(|(binder, vars, body)| {
                    let vars = vars.into_iter().map(|v| (v, Type::Obj)).collect();
                    Form::Binder(binder, vars, Box::new(body))
                }),
        ]
    })
    .boxed()
}

fn arb_subst() -> impl Strategy<Value = Subst> {
    proptest::collection::vec((pool_var(), arb_form()), 0..4)
        .prop_map(|bindings| bindings.into_iter().collect())
}

fn p(s: &str) -> Form {
    parse_form(s).unwrap_or_else(|e| panic!("parse {s:?}: {e}"))
}

fn subst_of(bindings: &[(&str, &str)]) -> Subst {
    bindings
        .iter()
        .map(|(v, t)| (v.to_string(), p(t)))
        .collect()
}

#[test]
fn capture_cases_match_the_reference() {
    let cases: &[(&str, &[(&str, &str)])] = &[
        // A bound variable occurs free in the replacement: the binder is renamed.
        ("ALL y. x = y", &[("x", "y")]),
        // Several bound variables of one binder, two of them capturing.
        ("ALL x y z. f x y = w", &[("w", "x + y")]),
        // Nested shadowing: the inner binder hides `x` again, the outer `z` is renamed.
        (
            "ALL z. (EX x. x = z) & x = z & (ALL x. x = y)",
            &[("x", "z"), ("y", "x")],
        ),
        // Every key shadowed: the binder is returned untouched.
        ("ALL x y. x = y", &[("x", "1"), ("y", "2")]),
        // The fresh name for `x` is `x_1`, itself a key: the reference substitutes
        // into the renamed binder's occurrences, and so must the library.
        ("ALL x. x = z", &[("z", "x"), ("x_1", "w")]),
        // A nested binder binds the fresh name the outer rename picks.
        ("ALL x. EX x_1. x = x_1 & z = x", &[("z", "x")]),
        // A repeated variable in one binder.
        ("ALL x x. x = z", &[("z", "x")]),
        // Lambda and comprehension binders, renamed the same way.
        ("(% y. y = x) & {y. y = x} = s", &[("x", "y")]),
        // A replacement mentioning its own key.
        ("EX y. x = y", &[("x", "f x y")]),
    ];
    for (form, bindings) in cases {
        let form = p(form);
        let sub = subst_of(bindings);
        assert_eq!(
            substitute(&form, &sub),
            reference::substitute(&form, &sub),
            "substituting {bindings:?} into {form}"
        );
    }
}

#[test]
fn chain_resolution_matches_the_reference() {
    let sequents = [
        // A copy chain, a chain through a binder, and a cyclic pair left unresolved.
        Sequent::new(
            vec![
                p("asg$1 = {x} Un content"),
                p("content_1 = asg$1"),
                p("asg$2 = (ALL y. y : content_1 --> y ~= x)"),
                p("b_1 <-> asg$2"),
                p("c_1 = c_2 Un {y}"),
                p("c_2 = c_1"),
            ],
            p("b_1 & content_1 = content Un {x}"),
        ),
        // A replacement whose free variable is bound further down the chain.
        Sequent::new(
            vec![
                p("asg$1 = y"),
                p("asg$2 = (EX y. y = asg$1)"),
                p("old$s = asg$2"),
            ],
            p("old$s"),
        ),
    ];
    for sequent in &sequents {
        assert_eq!(
            definition_substitution(&sequent.assumptions),
            reference::definition_substitution(&sequent.assumptions)
        );
        assert_eq!(
            inline_definitions(sequent),
            reference::inline_definitions(sequent)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Generated formulas and substitutions over one small pool of names substitute
    /// exactly as the reference does.
    #[test]
    fn generated_substitutions_match_the_reference(form in arb_form(), sub in arb_subst()) {
        prop_assert_eq!(substitute(&form, &sub), reference::substitute(&form, &sub));
    }

    /// Generated definitional assumptions inline exactly as the reference inlines them.
    #[test]
    fn generated_inlining_matches_the_reference(
        defs in proptest::collection::vec((0..4usize, arb_form()), 1..5),
        goal in arb_form(),
    ) {
        let names = ["asg$1", "asg$2", "x_1", "x_2"];
        let assumptions: Vec<Form> = defs
            .into_iter()
            .map(|(i, rhs)| Form::eq(Form::var(names[i]), rhs))
            .collect();
        let sequent = Sequent::new(assumptions, goal);
        prop_assert_eq!(
            inline_definitions(&sequent),
            reference::inline_definitions(&sequent)
        );
    }
}
