//! Property-based tests for the rule engine.

use agentgrid_rules::{
    parse_rules, Bindings, Effect, Engine, Fact, FieldPattern, Guard, GuardOp, KnowledgeBase,
    NaiveEngine, Operand, Pattern, Rule, RuleSeverity, Term,
};
use proptest::prelude::*;

fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        prop::num::f64::NORMAL.prop_map(Term::Num),
        "[a-z]{0,8}".prop_map(Term::from),
        any::<bool>().prop_map(Term::Bool),
    ]
}

fn op_strategy() -> impl Strategy<Value = GuardOp> {
    prop_oneof![
        Just(GuardOp::Lt),
        Just(GuardOp::Le),
        Just(GuardOp::Gt),
        Just(GuardOp::Ge),
        Just(GuardOp::Eq),
        Just(GuardOp::Ne),
    ]
}

// --- Random rule sets over a tiny universe, tuned so patterns collide
// --- and join: two kinds, two fields, a handful of values and variables.

fn small_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0i64..3).prop_map(|n| Term::Num(n as f64)),
        prop_oneof![Just("x"), Just("y")].prop_map(Term::from),
    ]
}

fn small_kind() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("a"), Just("b")]
}

fn small_var() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("u"), Just("v")]
}

fn small_fact() -> impl Strategy<Value = Fact> {
    (small_kind(), small_term(), small_term())
        .prop_map(|(kind, f, g)| Fact::new(kind).with("f", f).with("g", g))
}

fn small_field_pattern() -> impl Strategy<Value = FieldPattern> {
    prop_oneof![
        Just(FieldPattern::Any),
        small_term().prop_map(FieldPattern::Const),
        small_var().prop_map(|v| FieldPattern::Var(v.into())),
    ]
}

fn small_pattern() -> impl Strategy<Value = Pattern> {
    (
        small_kind(),
        prop::option::of(small_field_pattern()),
        prop::option::of(small_field_pattern()),
    )
        .prop_map(|(kind, f, g)| {
            let mut p = Pattern::new(kind);
            if let Some(fp) = f {
                p = p.field("f", fp);
            }
            if let Some(gp) = g {
                p = p.field("g", gp);
            }
            p
        })
}

fn small_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        small_term().prop_map(Operand::Const),
        small_var().prop_map(|v| Operand::Var(v.into())),
    ]
}

fn small_effect() -> impl Strategy<Value = Effect> {
    prop_oneof![
        small_operand().prop_map(|device| Effect::Emit {
            severity: RuleSeverity::Info,
            device,
            message: "saw ?u ?v".into(),
        }),
        (small_kind(), small_operand()).prop_map(|(kind, op)| Effect::Assert {
            kind: kind.into(),
            fields: vec![("f".into(), op)],
        }),
        (0usize..2).prop_map(Effect::Retract),
    ]
}

/// A guard variable: one of the pattern variables or, less often, `w`,
/// which no pattern binds (a guard over it never passes).
fn guard_var() -> impl Strategy<Value = &'static str> {
    // Shim prop_oneof! is unweighted; repeat the common arms.
    prop_oneof![Just("u"), Just("v"), Just("u"), Just("v"), Just("w")]
}

fn guard_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        small_term().prop_map(Operand::Const),
        guard_var().prop_map(|v| Operand::Var(v.into())),
    ]
}

/// Variable-versus-constant (`?u > 1`), variable-versus-variable
/// (`?u < ?v`, the shape of `correlated-cpu`'s device ordering),
/// constant-only, and guards over the unbound `w`.
fn guard_strategy() -> impl Strategy<Value = Guard> {
    (guard_operand(), op_strategy(), guard_operand())
        .prop_map(|(left, op, right)| Guard::new(left, op, right))
}

/// Everything of a random rule except its name (names are assigned by
/// index afterwards — duplicate names would alias refraction entries).
type RuleParts = (i32, Vec<Pattern>, Vec<Guard>, Vec<Effect>);

fn rule_parts() -> impl Strategy<Value = RuleParts> {
    (
        -2i32..3,
        prop::collection::vec(small_pattern(), 0..3),
        prop::collection::vec(guard_strategy(), 0..4),
        prop::collection::vec(small_effect(), 1..3),
    )
}

fn build_rules(parts: Vec<RuleParts>) -> Vec<Rule> {
    parts
        .into_iter()
        .enumerate()
        .map(|(i, (salience, patterns, guards, effects))| {
            let mut rule = Rule::new(format!("r{i}")).salience(salience);
            for p in patterns {
                rule = rule.when(p);
            }
            for g in guards {
                rule = rule.guard(g);
            }
            for e in effects {
                rule = rule.then(e);
            }
            rule
        })
        .collect()
}

proptest! {
    /// The incremental engine is observably equivalent to the retained
    /// naive reference matcher over random rule sets and fact streams
    /// (delivered in chunks with a run after each): same findings in the
    /// same order, same fired/asserted/retracted/cycle counts, same
    /// truncation — and never more match attempts.
    #[test]
    fn incremental_engine_matches_naive_reference(
        parts in prop::collection::vec(rule_parts(), 1..4),
        chunks in prop::collection::vec(prop::collection::vec(small_fact(), 0..6), 1..3),
    ) {
        let kb = KnowledgeBase::from_rules(build_rules(parts));
        let mut naive = NaiveEngine::new(kb.clone()).with_max_cycles(40);
        let mut incremental = Engine::new(kb).with_max_cycles(40);
        let mut naive_attempts = 0u64;
        let mut incremental_attempts = 0u64;
        for chunk in chunks {
            for fact in chunk {
                naive.insert(fact.clone());
                incremental.insert(fact);
            }
            let reference = naive.run();
            let candidate = incremental.run();
            prop_assert_eq!(&reference.findings, &candidate.findings);
            prop_assert_eq!(reference.stats.fired, candidate.stats.fired);
            prop_assert_eq!(reference.stats.asserted, candidate.stats.asserted);
            prop_assert_eq!(reference.stats.retracted, candidate.stats.retracted);
            prop_assert_eq!(reference.stats.cycles, candidate.stats.cycles);
            prop_assert_eq!(reference.truncated, candidate.truncated);
            naive_attempts += reference.stats.match_attempts;
            incremental_attempts += candidate.stats.match_attempts;
        }
        prop_assert!(
            incremental_attempts <= naive_attempts,
            "incremental did more match work than naive: {} > {}",
            incremental_attempts,
            naive_attempts,
        );
    }

    /// Equivalence also holds through knowledge-base edits mid-stream:
    /// learning a rule between runs preserves behaviour parity.
    #[test]
    fn equivalence_survives_learning(
        parts in prop::collection::vec(rule_parts(), 1..3),
        learned in rule_parts(),
        facts in prop::collection::vec(small_fact(), 1..8),
        more in prop::collection::vec(small_fact(), 0..5),
    ) {
        let kb = KnowledgeBase::from_rules(build_rules(parts));
        let mut naive = NaiveEngine::new(kb.clone()).with_max_cycles(40);
        let mut incremental = Engine::new(kb).with_max_cycles(40);
        for fact in facts {
            naive.insert(fact.clone());
            incremental.insert(fact);
        }
        let a = naive.run();
        let b = incremental.run();
        prop_assert_eq!(&a.findings, &b.findings);

        let rule = build_rules(vec![learned]).remove(0);
        naive.knowledge_mut().learn(rule.clone());
        incremental.knowledge_mut().learn(rule);
        for fact in more {
            naive.insert(fact.clone());
            incremental.insert(fact);
        }
        let a = naive.run();
        let b = incremental.run();
        prop_assert_eq!(&a.findings, &b.findings);
        prop_assert_eq!(a.stats.fired, b.stats.fired);
        prop_assert_eq!(a.truncated, b.truncated);
    }

    /// Guards never panic, for any operand/operator combination, and
    /// `Eq`/`Ne` are complementary on resolvable operands.
    #[test]
    fn guard_eval_is_total_and_eq_ne_complement(
        l in term_strategy(),
        r in term_strategy(),
        op in op_strategy(),
    ) {
        let g = Guard::new(Operand::Const(l.clone()), op, Operand::Const(r.clone()));
        let _ = g.eval(&Bindings::new());

        let eq = Guard::new(Operand::Const(l.clone()), GuardOp::Eq, Operand::Const(r.clone()));
        let ne = Guard::new(Operand::Const(l), GuardOp::Ne, Operand::Const(r));
        prop_assert_ne!(eq.eval(&Bindings::new()), ne.eval(&Bindings::new()));
    }

    /// A threshold rule fires exactly for the observations above the
    /// threshold, once each — regardless of insertion order.
    #[test]
    fn threshold_rule_fires_exactly_on_exceeding_values(
        threshold in 0.0f64..100.0,
        values in prop::collection::vec(0.0f64..100.0, 0..40),
    ) {
        let text = format!(
            r#"rule "t" {{
                when obs(device: ?d, value: ?v)
                if ?v > {threshold}
                then emit warning ?d "over"
            }}"#
        );
        let kb = KnowledgeBase::from_rules(parse_rules(&text).unwrap());
        let mut engine = Engine::new(kb);
        for (i, v) in values.iter().enumerate() {
            engine.insert(Fact::new("obs").with("device", format!("d{i}")).with("value", *v));
        }
        let out = engine.run();
        let expected = values.iter().filter(|v| **v > threshold).count();
        prop_assert_eq!(out.findings.len(), expected);
        prop_assert!(!out.truncated);
    }

    /// Refraction: a second run with unchanged memory fires nothing.
    #[test]
    fn second_run_is_quiescent(values in prop::collection::vec(0.0f64..100.0, 0..20)) {
        let kb = KnowledgeBase::from_rules(parse_rules(
            r#"rule "any" { when obs(value: ?v) then emit info "x" "seen ?v" }"#,
        ).unwrap());
        let mut engine = Engine::new(kb);
        for v in &values {
            engine.insert(Fact::new("obs").with("value", *v));
        }
        let first = engine.run();
        prop_assert_eq!(first.findings.len(), values.len());
        let second = engine.run();
        prop_assert_eq!(second.findings.len(), 0);
        prop_assert_eq!(second.stats.fired, 0);
    }

    /// Without retract effects, working memory only grows during a run
    /// (monotonicity of pure forward chaining).
    #[test]
    fn memory_grows_monotonically_without_retraction(
        n in 0usize..20,
    ) {
        let kb = KnowledgeBase::from_rules(parse_rules(
            r#"rule "derive" { when obs(value: ?v) then assert derived(value: ?v) }"#,
        ).unwrap());
        let mut engine = Engine::new(kb);
        for i in 0..n {
            engine.insert(Fact::new("obs").with("value", i as f64));
        }
        let before = engine.memory().len();
        let out = engine.run();
        prop_assert!(engine.memory().len() >= before);
        prop_assert_eq!(engine.memory().len(), before + out.stats.asserted as usize);
    }

    /// The DSL round-trips structurally: parsing equivalent text twice
    /// gives equal rules.
    #[test]
    fn parsing_is_deterministic(
        name in "[a-z][a-z-]{0,10}",
        salience in -100i32..100,
        threshold in -1000.0f64..1000.0,
    ) {
        let text = format!(
            r#"rule "{name}" salience {salience} {{
                when m(v: ?v)
                if ?v >= {threshold}
                then emit info ?v "msg"
            }}"#
        );
        let a = parse_rules(&text).unwrap();
        let b = parse_rules(&text).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a[0].name(), name.as_str());
        prop_assert_eq!(a[0].salience_value(), salience);
    }
}
