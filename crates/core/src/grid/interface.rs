use std::collections::VecDeque;
use std::sync::Arc;

use agentgrid_acl::ontology::{Alert, FromContent, Severity};
use agentgrid_acl::{AclMessage, AgentId, Performative, Value};
use agentgrid_platform::{Agent, AgentCtx};
use parking_lot::Mutex;

use crate::grid::Ledger;

/// A shared sink for alerts and reports — the "output channel" half of
/// the interface grid, readable from outside the platform (tests,
/// example binaries, a hypothetical web UI). A clone of the ledger is a
/// snapshot that shares its sealed chunks.
pub type AlertSink = Arc<Mutex<Ledger<Alert>>>;

/// Critical alerts a rendered report lists, most recent first.
const RECENT_CRITICAL: usize = 10;

/// An alert's slot in a `[info, warning, critical]` tally.
fn slot(severity: Severity) -> usize {
    match severity {
        Severity::Info => 0,
        Severity::Warning => 1,
        Severity::Critical => 2,
    }
}

/// The interface-grid agent (paper §3.4): the bidirectional channel
/// between the grid and the user.
///
/// **Output**: receives [`Alert`]s from analyzers and appends them to a
/// shared [`AlertSink`]; keeps severity tallies for report generation.
///
/// **Input (feedback)**: accepts `learn-rule` messages from the user
/// (posted into the platform) and broadcasts them to every registered
/// analyzer — "the interface ... is also a way of receiving feedback
/// from the user and supplying it to the system", including "defining
/// new rules".
pub struct InterfaceAgent {
    sink: AlertSink,
    /// Alerts received per severity: `[info, warning, critical]`.
    pub tallies: [u64; 3],
    /// Rules forwarded to analyzers.
    pub rules_distributed: u64,
}

impl std::fmt::Debug for InterfaceAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterfaceAgent")
            .field("tallies", &self.tallies)
            .field("rules_distributed", &self.rules_distributed)
            .finish()
    }
}

impl InterfaceAgent {
    /// Creates an interface agent writing alerts to `sink`.
    pub fn new(sink: AlertSink) -> Self {
        InterfaceAgent {
            sink,
            tallies: [0; 3],
            rules_distributed: 0,
        }
    }

    /// Renders the alerts as an XML document — the paper's interface
    /// grid is "flexible and multi-protocol ... for example, HTML pages,
    /// e-mail, chat, XML/HTTP" (§3.4); this is the XML/HTTP payload.
    pub fn render_xml<'a>(alerts: impl IntoIterator<Item = &'a Alert>) -> String {
        fn escape(s: &str) -> String {
            s.replace('&', "&amp;")
                .replace('<', "&lt;")
                .replace('>', "&gt;")
                .replace('"', "&quot;")
        }
        let mut out = String::from("<?xml version=\"1.0\"?>\n<management-report>\n");
        for alert in alerts {
            out.push_str(&format!(
                "  <alert rule=\"{}\" device=\"{}\" severity=\"{}\" ts-ms=\"{}\">{}</alert>\n",
                escape(&alert.rule),
                escape(&alert.device),
                alert.severity,
                alert.timestamp_ms,
                escape(&alert.message),
            ));
        }
        out.push_str("</management-report>\n");
        out
    }

    /// Renders the current management report: alert counts by severity
    /// and the most recent critical findings, in one pass over `alerts`.
    pub fn render_report<'a>(alerts: impl IntoIterator<Item = &'a Alert>) -> String {
        let mut tallies = [0usize; 3];
        let mut recent = VecDeque::with_capacity(RECENT_CRITICAL);
        for alert in alerts {
            tallies[slot(alert.severity)] += 1;
            if alert.severity == Severity::Critical {
                if recent.len() == RECENT_CRITICAL {
                    recent.pop_front();
                }
                recent.push_back(alert);
            }
        }
        let mut out = String::from("=== management report ===\n");
        out.push_str(&format!(
            "alerts: {} critical, {} warning, {} info\n",
            tallies[2], tallies[1], tallies[0]
        ));
        for alert in recent.iter().rev() {
            out.push_str(&format!(
                "[{} ms] {} ({}): {}\n",
                alert.timestamp_ms, alert.device, alert.rule, alert.message
            ));
        }
        out
    }
}

impl Agent for InterfaceAgent {
    fn on_message(&mut self, message: &AclMessage, ctx: &mut AgentCtx<'_>) {
        // User feedback: distribute a new rule to every analyzer.
        if message.content().get("concept").and_then(Value::as_str) == Some("learn-rule") {
            let analyzers: Vec<AgentId> = ctx
                .df()
                .search("analysis")
                .iter()
                .map(|e| e.provider.clone())
                .collect();
            for analyzer in analyzers {
                let forward = AclMessage::builder(Performative::Inform)
                    .sender(ctx.self_id().clone())
                    .receiver(analyzer)
                    .content(message.content().clone())
                    .build()
                    .expect("sender and receiver are set");
                ctx.send(forward);
                self.rules_distributed += 1;
            }
            return;
        }
        if let Ok(alert) = Alert::from_content(message.content()) {
            self.tallies[slot(alert.severity)] += 1;
            self.sink.lock().push(alert);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_acl::ontology::ToContent;
    use agentgrid_platform::DirectoryFacilitator;

    fn ctx_bundle() -> (
        AgentId,
        Vec<agentgrid_acl::SharedMessage>,
        DirectoryFacilitator,
    ) {
        (
            AgentId::new("ig@g"),
            Vec::new(),
            DirectoryFacilitator::new(),
        )
    }

    #[test]
    fn alerts_reach_the_sink_with_tallies() {
        let sink: AlertSink = Arc::default();
        let mut agent = InterfaceAgent::new(Arc::clone(&sink));
        let (id, mut outbox, mut df) = ctx_bundle();
        for (severity, n) in [(Severity::Critical, 2usize), (Severity::Info, 1)] {
            for i in 0..n {
                let alert = Alert::new("r", format!("d{i}"), severity, "m", 0);
                let msg = AclMessage::builder(Performative::Inform)
                    .sender(AgentId::new("an@g"))
                    .receiver(id.clone())
                    .content(alert.to_content())
                    .build()
                    .unwrap();
                let mut ctx = AgentCtx::new(&id, "ig", 0, &mut outbox, &mut df);
                agent.on_message(&msg, &mut ctx);
            }
        }
        assert_eq!(sink.lock().len(), 3);
        assert_eq!(agent.tallies, [1, 0, 2]);
    }

    #[test]
    fn learn_rule_broadcasts_to_all_analyzers() {
        let sink: AlertSink = Arc::default();
        let mut agent = InterfaceAgent::new(sink);
        let (id, mut outbox, mut df) = ctx_bundle();
        df.register_service(AgentId::new("an-1@g"), "analysis", ["pg-1"]);
        df.register_service(AgentId::new("an-2@g"), "analysis", ["pg-2"]);
        let feedback = AclMessage::builder(Performative::Request)
            .sender(AgentId::new("user"))
            .receiver(id.clone())
            .content(Value::map([
                ("concept", Value::symbol("learn-rule")),
                ("text", Value::from("rule \"x\" { }")),
            ]))
            .build()
            .unwrap();
        let mut ctx = AgentCtx::new(&id, "ig", 0, &mut outbox, &mut df);
        agent.on_message(&feedback, &mut ctx);
        drop(ctx);
        assert_eq!(outbox.len(), 2);
        assert_eq!(agent.rules_distributed, 2);
        assert!(outbox
            .iter()
            .all(|m| m.content().get("concept").unwrap().as_str() == Some("learn-rule")));
    }

    #[test]
    fn report_lists_critical_alerts() {
        let alerts = vec![
            Alert::new("high-cpu", "r1", Severity::Critical, "cpu 99%", 5),
            Alert::new("note", "r2", Severity::Info, "fyi", 6),
        ];
        let report = InterfaceAgent::render_report(&alerts);
        assert!(report.contains("1 critical, 0 warning, 1 info"));
        assert!(report.contains("cpu 99%"));
        assert!(!report.contains("fyi"));
    }

    #[test]
    fn report_lists_the_ten_latest_critical_alerts_newest_first() {
        let alerts: Ledger<Alert> = (0..12)
            .map(|i| Alert::new("r", format!("d{i}"), Severity::Critical, "m", i))
            .collect();
        let report = InterfaceAgent::render_report(&alerts);
        let listed: Vec<&str> = report.lines().skip(2).collect();
        assert_eq!(listed.len(), 10);
        assert_eq!(listed[0], "[11 ms] d11 (r): m");
        assert_eq!(listed[9], "[2 ms] d2 (r): m");
        assert!(report.contains("12 critical"));
    }

    #[test]
    fn xml_report_escapes_and_lists_alerts() {
        let alerts = vec![Alert::new(
            "high-cpu",
            "r<1>",
            Severity::Critical,
            "load > 90% on \"r1\"",
            7,
        )];
        let xml = InterfaceAgent::render_xml(&alerts);
        assert!(xml.starts_with("<?xml"));
        assert!(xml.contains("device=\"r&lt;1&gt;\""));
        assert!(xml.contains("load &gt; 90% on &quot;r1&quot;"));
        assert!(xml.contains("severity=\"critical\""));
        assert!(xml.trim_end().ends_with("</management-report>"));
    }

    #[test]
    fn xml_report_of_nothing_is_an_empty_document() {
        let xml = InterfaceAgent::render_xml(&[]);
        assert!(xml.contains("<management-report>"));
        assert!(!xml.contains("<alert"));
    }

    #[test]
    fn garbage_messages_are_ignored() {
        let sink: AlertSink = Arc::default();
        let mut agent = InterfaceAgent::new(Arc::clone(&sink));
        let (id, mut outbox, mut df) = ctx_bundle();
        let junk = AclMessage::builder(Performative::Inform)
            .sender(AgentId::new("x"))
            .receiver(id.clone())
            .content(Value::symbol("nonsense"))
            .build()
            .unwrap();
        let mut ctx = AgentCtx::new(&id, "ig", 0, &mut outbox, &mut df);
        agent.on_message(&junk, &mut ctx);
        drop(ctx);
        assert!(sink.lock().is_empty());
        assert!(outbox.is_empty());
    }
}
