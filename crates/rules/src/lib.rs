//! Forward-chaining production-rule engine for `agentgrid`.
//!
//! The paper's processor grid turns collected data into management
//! information by running "a large number of analysis rules" over it
//! (§2.1, §4). This crate is that inference substrate:
//!
//! * [`Fact`]s with typed fields live in a [`WorkingMemory`];
//! * [`Rule`]s join [`Pattern`]s over those facts with variable binding,
//!   filter matches through [`Guard`]s, and fire [`Effect`]s (assert new
//!   facts, retract matched ones, emit [`Finding`]s);
//! * the [`Engine`] runs forward chaining with refraction (an activation
//!   never fires twice on the same facts) and salience-then-recency
//!   conflict resolution — incrementally, via a TREAT-style persistent
//!   agenda over an alpha-indexed working memory ([`NaiveEngine`] retains
//!   the full-recompute matcher as the executable reference);
//! * rules can be written in a small textual DSL ([`parse_rules`]) so a
//!   [`KnowledgeBase`] can be extended at runtime — the paper's "agents can
//!   learn new rules".
//!
//! # Examples
//!
//! ```
//! use agentgrid_rules::{Engine, Fact, KnowledgeBase, parse_rules};
//!
//! let kb = KnowledgeBase::from_rules(parse_rules(r#"
//!     rule "high-cpu" salience 10 {
//!         when obs(device: ?d, metric: "cpu.load", value: ?v)
//!         if ?v > 90
//!         then emit critical ?d "cpu overload"
//!     }
//! "#)?);
//! let mut engine = Engine::new(kb);
//! engine.insert(Fact::new("obs")
//!     .with("device", "router-1")
//!     .with("metric", "cpu.load")
//!     .with("value", 97.0));
//! let run = engine.run();
//! assert_eq!(run.findings.len(), 1);
//! assert_eq!(run.findings[0].device, "router-1");
//! # Ok::<(), agentgrid_rules::ParseRuleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dsl;
mod engine;
mod fact;
mod naive;
mod pattern;
mod rule;

pub use dsl::{parse_rules, ParseRuleError};
pub use engine::{Engine, RunOutcome, RunStats};
pub use fact::{Fact, FactId, Term, WorkingMemory};
pub use naive::NaiveEngine;
pub use pattern::{Bindings, FieldPattern, Pattern};
pub use rule::{
    AlphaKeys, Effect, Finding, Guard, GuardOp, KnowledgeBase, Operand, Rule, RuleSeverity,
    RuleView, View,
};
