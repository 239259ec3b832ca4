//! Reference implementations of capture-avoiding substitution and definitional
//! inlining, kept as they were before `subst_rec` tracked shadowing on a stack and
//! callers shared one replacement free-variable set. The oracle tests
//! (`crates/logic/tests/subst_oracle.rs`, `tests/canonical_identity.rs`) compare the
//! library against these byte for byte, so any change to which names get renamed, or
//! to the order chains resolve in, shows as a failure.
//!
//! Deliberately naive: every call recomputes the replacement free variables, and every
//! binder clones the substitution and its avoid set.

use jahob_logic::form::{Const, Form, Ident};
use jahob_logic::norm::is_generated_name;
use jahob_logic::simplify::{simplify, strip_comments_deep};
use jahob_logic::subst::{free_vars, fresh_name, Subst};
use jahob_logic::Sequent;
use std::collections::BTreeSet;

/// Applies `sub` to `form`, renaming bound variables to avoid capture.
pub fn substitute(form: &Form, sub: &Subst) -> Form {
    if sub.is_empty() {
        return form.clone();
    }
    let mut replacement_fvs: BTreeSet<Ident> = BTreeSet::new();
    for f in sub.values() {
        replacement_fvs.extend(free_vars(f));
    }
    subst_rec(form, sub, &replacement_fvs)
}

fn subst_rec(form: &Form, sub: &Subst, replacement_fvs: &BTreeSet<Ident>) -> Form {
    match form {
        Form::Var(v) => sub.get(v).cloned().unwrap_or_else(|| form.clone()),
        Form::Const(_) => form.clone(),
        Form::App(f, args) => Form::App(
            Box::new(subst_rec(f, sub, replacement_fvs)),
            args.iter()
                .map(|a| subst_rec(a, sub, replacement_fvs))
                .collect(),
        ),
        Form::Typed(f, t) => Form::Typed(Box::new(subst_rec(f, sub, replacement_fvs)), t.clone()),
        Form::Binder(binder, vars, body) => {
            let mut inner_sub: Subst = sub
                .iter()
                .filter(|(k, _)| !vars.iter().any(|(v, _)| v == *k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            if inner_sub.is_empty() {
                return form.clone();
            }
            let mut new_vars = Vec::with_capacity(vars.len());
            let mut body = body.as_ref().clone();
            let mut avoid: BTreeSet<Ident> = replacement_fvs.clone();
            avoid.extend(free_vars(&body));
            for (v, t) in vars {
                if replacement_fvs.contains(v) {
                    let fresh = fresh_name(v, &avoid);
                    avoid.insert(fresh.clone());
                    let mut rename = Subst::new();
                    rename.insert(v.clone(), Form::Var(fresh.clone()));
                    body = substitute(&body, &rename);
                    inner_sub.remove(v);
                    new_vars.push((fresh, t.clone()));
                } else {
                    new_vars.push((v.clone(), t.clone()));
                }
            }
            Form::Binder(
                *binder,
                new_vars,
                Box::new(subst_rec(&body, &inner_sub, replacement_fvs)),
            )
        }
    }
}

/// The definitional substitution of `assumptions`, chains resolved in place.
pub fn definition_substitution(assumptions: &[Form]) -> Subst {
    let mut map: Subst = Subst::new();
    for a in assumptions {
        let stripped = strip_comments_deep(a);
        for c in stripped.conjuncts() {
            let link = c.as_eq().or_else(|| {
                c.as_app_of(&Const::Iff).and_then(|args| match args {
                    [l, r] => Some((l, r)),
                    _ => None,
                })
            });
            let Some((l, r)) = link else { continue };
            for (lhs, rhs) in [(l, r), (r, l)] {
                let Form::Var(v) = lhs else { continue };
                if !is_generated_name(v) || map.contains_key(v) {
                    continue;
                }
                if free_vars(rhs).contains(v) {
                    continue;
                }
                map.insert(v.clone(), rhs.clone());
                break;
            }
        }
    }
    let names: Vec<Ident> = map.keys().cloned().collect();
    for _ in 0..names.len() {
        let mut changed = false;
        for v in &names {
            let current = map[v].clone();
            let next = substitute(&current, &map);
            if next != current && !free_vars(&next).contains(v) {
                map.insert(v.clone(), next);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    map
}

/// Inlines the definitional equalities of generated variables into `sequent`.
pub fn inline_definitions(sequent: &Sequent) -> Sequent {
    let sub = definition_substitution(&sequent.assumptions);
    if sub.is_empty() {
        return sequent.clone();
    }
    let mut assumptions = Vec::new();
    for a in &sequent.assumptions {
        let inlined = simplify(&substitute(a, &sub));
        if inlined.is_true() {
            continue;
        }
        assumptions.push(inlined);
    }
    Sequent {
        assumptions,
        goal: simplify(&substitute(&sequent.goal, &sub)),
        labels: sequent.labels.clone(),
    }
}
