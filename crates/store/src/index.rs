//! Label index and multi-series selection.
//!
//! Every series carries four labels: `device` (the managed element),
//! `oid` (the metric identifier, SNMP-style), `class` (the partition
//! assigned by the [`Classifier`](crate::Classifier)) and `site` (where
//! its device was collected). [`LabelIndex`] files each series once, by
//! partition, device and metric, next to the site roster, and
//! [`LabelFilter`] selects series with AND/OR matcher expressions such as
//! `device=r1 & (class=cpu | class=disk)` — evaluated over the index,
//! never by scanning points.

use std::collections::{BTreeMap, BTreeSet};

/// A series key: `(device, metric)`.
pub type SeriesKey = (String, String);

/// The four indexed label axes of a series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Label {
    /// The managed device the series was observed on.
    Device,
    /// The metric identifier (SNMP-style OID / metric name).
    Oid,
    /// The partition class assigned by the classifier.
    Class,
    /// The site the series' device was collected at.
    Site,
}

impl Label {
    fn parse(name: &str) -> Option<Label> {
        match name {
            "device" => Some(Label::Device),
            "oid" | "metric" => Some(Label::Oid),
            "class" | "partition" => Some(Label::Class),
            "site" => Some(Label::Site),
            _ => None,
        }
    }
}

/// A selection expression over series labels.
///
/// Grammar (whitespace-insensitive):
///
/// ```text
/// expr   := term ( '|' term )*
/// term   := factor ( '&' factor )*
/// factor := label '=' value | '(' expr ')' | '*'
/// label  := 'device' | 'oid' | 'metric' | 'class' | 'partition' | 'site'
/// ```
///
/// `&` binds tighter than `|`; `*` matches every series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelFilter {
    /// Matches every series.
    Any,
    /// Matches series whose label equals the value exactly.
    Eq(Label, String),
    /// Both sides must match (set intersection).
    And(Box<LabelFilter>, Box<LabelFilter>),
    /// Either side may match (set union).
    Or(Box<LabelFilter>, Box<LabelFilter>),
}

impl LabelFilter {
    /// Matches one device.
    pub fn device(name: &str) -> LabelFilter {
        LabelFilter::Eq(Label::Device, name.to_owned())
    }

    /// Matches one metric identifier.
    pub fn oid(name: &str) -> LabelFilter {
        LabelFilter::Eq(Label::Oid, name.to_owned())
    }

    /// Matches one partition class.
    pub fn class(name: &str) -> LabelFilter {
        LabelFilter::Eq(Label::Class, name.to_owned())
    }

    /// Matches every series of the devices seen at one site.
    pub fn site(name: &str) -> LabelFilter {
        LabelFilter::Eq(Label::Site, name.to_owned())
    }

    /// Intersection with another filter.
    pub fn and(self, other: LabelFilter) -> LabelFilter {
        LabelFilter::And(Box::new(self), Box::new(other))
    }

    /// Union with another filter.
    pub fn or(self, other: LabelFilter) -> LabelFilter {
        LabelFilter::Or(Box::new(self), Box::new(other))
    }

    /// Parses a matcher expression; `Err` carries a human-readable
    /// description of the first syntax problem.
    ///
    /// # Examples
    ///
    /// ```
    /// use agentgrid_store::LabelFilter;
    ///
    /// let f = LabelFilter::parse("device=r1 & (class=cpu | class=disk)").unwrap();
    /// assert_eq!(
    ///     f,
    ///     LabelFilter::device("r1")
    ///         .and(LabelFilter::class("cpu").or(LabelFilter::class("disk")))
    /// );
    /// ```
    pub fn parse(input: &str) -> Result<LabelFilter, String> {
        let mut p = Parser { rest: input.trim() };
        let expr = p.expr()?;
        if !p.rest.is_empty() {
            return Err(format!("trailing input: {:?}", p.rest));
        }
        Ok(expr)
    }
}

struct Parser<'a> {
    rest: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn eat(&mut self, ch: char) -> bool {
        self.skip_ws();
        if let Some(stripped) = self.rest.strip_prefix(ch) {
            self.rest = stripped;
            true
        } else {
            false
        }
    }

    fn expr(&mut self) -> Result<LabelFilter, String> {
        let mut left = self.term()?;
        while self.eat('|') {
            let right = self.term()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn term(&mut self) -> Result<LabelFilter, String> {
        let mut left = self.factor()?;
        while self.eat('&') {
            let right = self.factor()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn factor(&mut self) -> Result<LabelFilter, String> {
        self.skip_ws();
        if self.eat('*') {
            return Ok(LabelFilter::Any);
        }
        if self.eat('(') {
            let inner = self.expr()?;
            if !self.eat(')') {
                return Err(format!("expected ')' before {:?}", self.rest));
            }
            return Ok(inner);
        }
        let name_len = self
            .rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(self.rest.len());
        let (name, rest) = self.rest.split_at(name_len);
        let label = Label::parse(name)
            .ok_or_else(|| format!("unknown label {name:?} (expected device/oid/class/site)"))?;
        self.rest = rest;
        if !self.eat('=') {
            return Err(format!("expected '=' after {name:?}"));
        }
        self.skip_ws();
        let value_len = self
            .rest
            .find(|c: char| c.is_whitespace() || matches!(c, '&' | '|' | '(' | ')'))
            .unwrap_or(self.rest.len());
        if value_len == 0 {
            return Err(format!("empty value for label {name:?}"));
        }
        let (value, rest) = self.rest.split_at(value_len);
        self.rest = rest;
        Ok(LabelFilter::Eq(label, value.to_owned()))
    }
}

/// The series population filed by label, each series entered once, plus
/// the site roster.
///
/// A series is filed under its partition (the `class` label), then its
/// device, then its metric, so the selections the analyzer makes are
/// walks rather than set algebra:
///
/// * `class=p` walks one partition in `(device, metric)` order;
/// * `class=p & site=s` walks only the partition's series of the devices
///   seen at `s`;
/// * a metric filter is tested once per distinct metric name of the
///   partition, and only the series of admitted metrics are visited — a
///   partition none of whose metrics is admitted is skipped whole.
///
/// Selections on the other labels (`device=`, `oid=`, `site=` alone, `*`)
/// gather across the partitions; they serve tests and windowed queries,
/// not the analysis hot path.
#[derive(Debug, Clone, Default)]
pub(crate) struct LabelIndex {
    /// partition → its series.
    classes: BTreeMap<String, Class>,
    /// site → devices seen at it.
    sites: BTreeMap<String, BTreeSet<String>>,
}

/// One partition's series.
#[derive(Debug, Clone, Default)]
struct Class {
    /// device → its metrics in this partition.
    devices: BTreeMap<String, BTreeSet<String>>,
    /// The partition's distinct metric names (one entry per name, not per
    /// series): a metric filter is decided here once per name.
    metrics: BTreeSet<String>,
}

impl Class {
    /// The partition's series in `(device, metric)` order.
    fn series(&self) -> impl Iterator<Item = (&str, &str)> {
        self.devices
            .iter()
            .flat_map(|(d, metrics)| metrics.iter().map(move |m| (d.as_str(), m.as_str())))
    }
}

impl LabelIndex {
    /// Enters a new series under its partition, device and metric.
    pub(crate) fn observe_series(&mut self, device: &str, metric: &str, partition: &str) {
        let class = match self.classes.get_mut(partition) {
            Some(class) => class,
            None => self.classes.entry(partition.to_owned()).or_default(),
        };
        class
            .devices
            .entry(device.to_owned())
            .or_default()
            .insert(metric.to_owned());
        if !class.metrics.contains(metric) {
            class.metrics.insert(metric.to_owned());
        }
    }

    /// Enters `device` in `site`'s roster; allocates only when the device
    /// is new there.
    pub(crate) fn observe_site(&mut self, device: &str, site: &str) {
        if self
            .sites
            .get(site)
            .is_some_and(|devices| devices.contains(device))
        {
            return;
        }
        self.sites
            .entry(site.to_owned())
            .or_default()
            .insert(device.to_owned());
    }

    pub(crate) fn devices_at(&self, site: &str) -> impl Iterator<Item = &str> {
        self.sites
            .get(site)
            .into_iter()
            .flatten()
            .map(String::as_str)
    }

    pub(crate) fn partitions(&self) -> Vec<&str> {
        self.classes.keys().map(String::as_str).collect()
    }

    pub(crate) fn by_partition<'a>(
        &'a self,
        partition: &str,
    ) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        self.classes
            .get(partition)
            .into_iter()
            .flat_map(Class::series)
    }

    /// The series of `partition` whose metric `admit` accepts — of the
    /// devices seen at `site` only, when a site is given — in
    /// `(device, metric)` order.
    ///
    /// `admit` runs once per distinct metric name of the partition, and
    /// only admitted series of in-scope devices are visited.
    pub(crate) fn scoped<'a>(
        &'a self,
        partition: &str,
        site: Option<&str>,
        mut admit: impl FnMut(&str) -> bool,
    ) -> Vec<(&'a str, &'a str)> {
        let mut out = Vec::new();
        let Some(class) = self.classes.get(partition) else {
            return out;
        };
        let admitted: Vec<&str> = class
            .metrics
            .iter()
            .map(String::as_str)
            .filter(|m| admit(m))
            .collect();
        if admitted.is_empty() {
            return out;
        }
        let every_metric = admitted.len() == class.metrics.len();
        let mut walk = |device: &'a str, metrics: &'a BTreeSet<String>| {
            if every_metric {
                out.extend(metrics.iter().map(|m| (device, m.as_str())));
            } else {
                out.extend(
                    admitted
                        .iter()
                        .filter_map(|m| metrics.get(*m))
                        .map(|m| (device, m.as_str())),
                );
            }
        };
        match site {
            Some(site) => {
                for device in self.sites.get(site).into_iter().flatten() {
                    if let Some((device, metrics)) = class.devices.get_key_value(device) {
                        walk(device, metrics);
                    }
                }
            }
            None => {
                for (device, metrics) in &class.devices {
                    walk(device, metrics);
                }
            }
        }
        out
    }

    /// A device's series across the partitions.
    fn series_of<'a, 'd>(
        &'a self,
        device: &'d str,
    ) -> impl Iterator<Item = (&'a str, &'a str)> + use<'a, 'd> {
        self.classes
            .values()
            .filter_map(move |class| class.devices.get_key_value(device))
            .flat_map(|(d, metrics)| metrics.iter().map(move |m| (d.as_str(), m.as_str())))
    }

    /// Evaluates a filter to the sorted set of matching series keys.
    pub(crate) fn select(&self, filter: &LabelFilter) -> BTreeSet<(&str, &str)> {
        match filter {
            LabelFilter::Any => self.classes.values().flat_map(Class::series).collect(),
            LabelFilter::Eq(Label::Device, value) => self.series_of(value).collect(),
            LabelFilter::Eq(Label::Oid, value) => {
                self.classes
                    .values()
                    .filter(|class| class.metrics.contains(value))
                    .flat_map(|class| {
                        class.devices.iter().filter_map(|(d, metrics)| {
                            Some((d.as_str(), metrics.get(value)?.as_str()))
                        })
                    })
                    .collect()
            }
            LabelFilter::Eq(Label::Class, value) => self.by_partition(value).collect(),
            LabelFilter::Eq(Label::Site, value) => self
                .devices_at(value)
                .flat_map(|device| self.series_of(device))
                .collect(),
            // `class=p & site=s` is the analyzer's site-scoped read: a walk
            // of the partition's series at the site's devices.
            LabelFilter::And(a, b) => match class_and_site(a, b).or_else(|| class_and_site(b, a)) {
                Some((class, site)) => self
                    .scoped(class, Some(site), |_| true)
                    .into_iter()
                    .collect(),
                None => {
                    let right = self.select(b);
                    let mut left = self.select(a);
                    left.retain(|key| right.contains(key));
                    left
                }
            },
            LabelFilter::Or(a, b) => {
                let mut left = self.select(a);
                left.extend(self.select(b));
                left
            }
        }
    }
}

/// The `(partition, site)` of a `class=p & site=s` pair of matchers.
fn class_and_site<'f>(class: &'f LabelFilter, site: &'f LabelFilter) -> Option<(&'f str, &'f str)> {
    match (class, site) {
        (LabelFilter::Eq(Label::Class, class), LabelFilter::Eq(Label::Site, site)) => {
            Some((class, site))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> LabelIndex {
        let mut ix = LabelIndex::default();
        for (device, metric, partition, site) in [
            ("r1", "cpu.load.1", "cpu", "hq"),
            ("r1", "if.1.in-octets", "interface", "hq"),
            ("r2", "cpu.load.1", "cpu", "branch"),
            ("s1", "storage.disk.used-pct", "disk", "branch"),
        ] {
            ix.observe_series(device, metric, partition);
            ix.observe_site(device, site);
        }
        ix
    }

    fn keys<'a>(set: &BTreeSet<(&'a str, &'a str)>) -> Vec<(&'a str, &'a str)> {
        set.iter().copied().collect()
    }

    #[test]
    fn eq_matchers_use_the_inverted_maps() {
        let ix = sample_index();
        assert_eq!(
            keys(&ix.select(&LabelFilter::device("r1"))),
            [("r1", "cpu.load.1"), ("r1", "if.1.in-octets")]
        );
        assert_eq!(
            keys(&ix.select(&LabelFilter::oid("cpu.load.1"))),
            [("r1", "cpu.load.1"), ("r2", "cpu.load.1")]
        );
        assert_eq!(
            keys(&ix.select(&LabelFilter::class("disk"))),
            [("s1", "storage.disk.used-pct")]
        );
        assert!(ix.select(&LabelFilter::device("ghost")).is_empty());
    }

    #[test]
    fn and_or_compose_as_set_algebra() {
        let ix = sample_index();
        let f = LabelFilter::device("r1").and(LabelFilter::class("cpu"));
        assert_eq!(keys(&ix.select(&f)), [("r1", "cpu.load.1")]);
        let f = LabelFilter::class("cpu").or(LabelFilter::class("disk"));
        assert_eq!(
            keys(&ix.select(&f)),
            [
                ("r1", "cpu.load.1"),
                ("r2", "cpu.load.1"),
                ("s1", "storage.disk.used-pct")
            ]
        );
        assert_eq!(keys(&ix.select(&LabelFilter::Any)).len(), 4);
    }

    #[test]
    fn site_matcher_selects_the_series_of_the_sites_devices() {
        let ix = sample_index();
        assert_eq!(
            keys(&ix.select(&LabelFilter::site("hq"))),
            [("r1", "cpu.load.1"), ("r1", "if.1.in-octets")]
        );
        let cpu_at_branch = LabelFilter::class("cpu").and(LabelFilter::site("branch"));
        assert_eq!(keys(&ix.select(&cpu_at_branch)), [("r2", "cpu.load.1")]);
        // Either operand order, and the same set as the generic
        // intersection of the two sides.
        let flipped = LabelFilter::site("branch").and(LabelFilter::class("cpu"));
        assert_eq!(ix.select(&flipped), ix.select(&cpu_at_branch));
        let generic: BTreeSet<(&str, &str)> = ix
            .select(&LabelFilter::class("cpu"))
            .intersection(&ix.select(&LabelFilter::site("branch")))
            .copied()
            .collect();
        assert_eq!(ix.select(&cpu_at_branch), generic);
        assert!(ix
            .select(&LabelFilter::class("cpu").and(LabelFilter::site("ghost")))
            .is_empty());
        assert_eq!(
            LabelFilter::parse("class=cpu & site=branch").unwrap(),
            cpu_at_branch
        );
    }

    #[test]
    fn scoped_walks_admitted_metrics_of_the_sites_devices() {
        let mut ix = sample_index();
        ix.observe_series("r2", "cpu.load.5", "cpu");
        ix.observe_series("r3", "cpu.load.1", "cpu");
        ix.observe_site("r3", "hq");
        assert_eq!(
            ix.scoped("cpu", None, |_| true),
            [
                ("r1", "cpu.load.1"),
                ("r2", "cpu.load.1"),
                ("r2", "cpu.load.5"),
                ("r3", "cpu.load.1")
            ]
        );
        assert_eq!(
            ix.scoped("cpu", Some("hq"), |_| true),
            [("r1", "cpu.load.1"), ("r3", "cpu.load.1")]
        );
        assert_eq!(
            ix.scoped("cpu", Some("branch"), |m| m == "cpu.load.5"),
            [("r2", "cpu.load.5")]
        );
        // The filter sees each distinct metric name once, and a partition
        // with nothing admitted is not walked.
        let mut asked = Vec::new();
        assert!(ix
            .scoped("cpu", None, |m| {
                asked.push(m.to_owned());
                false
            })
            .is_empty());
        assert_eq!(asked, ["cpu.load.1", "cpu.load.5"]);
        assert!(ix.scoped("ghost", None, |_| true).is_empty());
        assert!(ix.scoped("cpu", Some("ghost"), |_| true).is_empty());
    }

    #[test]
    fn parser_round_trips_precedence() {
        let f = LabelFilter::parse("device=r1 & (class=cpu | class=disk)").unwrap();
        assert_eq!(
            f,
            LabelFilter::device("r1").and(LabelFilter::class("cpu").or(LabelFilter::class("disk")))
        );
        // '&' binds tighter than '|'.
        let f = LabelFilter::parse("class=cpu | class=disk & device=s1").unwrap();
        assert_eq!(
            f,
            LabelFilter::class("cpu").or(LabelFilter::class("disk").and(LabelFilter::device("s1")))
        );
        assert_eq!(LabelFilter::parse("*").unwrap(), LabelFilter::Any);
        assert_eq!(
            LabelFilter::parse("metric=cpu.load.1").unwrap(),
            LabelFilter::oid("cpu.load.1")
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(LabelFilter::parse("bogus=1").is_err());
        assert!(LabelFilter::parse("device r1").is_err());
        assert!(LabelFilter::parse("device=").is_err());
        assert!(LabelFilter::parse("(device=r1").is_err());
        assert!(LabelFilter::parse("device=r1 extra").is_err());
    }
}
