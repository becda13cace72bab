//! Label index and multi-series selection.
//!
//! Every series carries four labels: `device` (the managed element),
//! `oid` (the metric identifier, SNMP-style), `class` (the partition
//! assigned by the [`Classifier`](crate::Classifier)) and `site` (where
//! its device was collected). [`LabelIndex`] maintains the inverted maps
//! for the first three plus the site roster, and [`LabelFilter`] selects
//! series with AND/OR matcher expressions such as
//! `device=r1 & (class=cpu | class=disk)` — evaluated as set algebra
//! over the inverted maps, never by scanning points.

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

/// Inverted label maps over the series population, plus the site roster.
///
/// Both store backends embed one of these, so index-derived enumeration
/// (`devices`, `partitions`, `by_partition`, `select`) is identical by
/// construction across backends.
#[derive(Debug, Clone, Default)]
pub(crate) struct LabelIndex {
    /// device → metrics observed on it.
    device_index: BTreeMap<String, BTreeSet<String>>,
    /// partition → (device, metric) keys in it.
    partition_index: BTreeMap<String, BTreeSet<SeriesKey>>,
    /// metric → (device, metric) keys carrying it.
    oid_index: BTreeMap<String, BTreeSet<SeriesKey>>,
    /// site → devices seen at it.
    site_index: BTreeMap<String, BTreeSet<String>>,
    /// Every series key (the `*` universe).
    all: BTreeSet<SeriesKey>,
}

impl LabelIndex {
    /// Records one point's labels: its series and its device's site.
    pub(crate) fn observe(&mut self, device: &str, metric: &str, partition: &str, site: &str) {
        self.observe_series(device, metric, partition);
        self.observe_site(device, site);
    }

    /// Enters a series under its device, partition and metric.
    pub(crate) fn observe_series(&mut self, device: &str, metric: &str, partition: &str) {
        let key = (device.to_owned(), metric.to_owned());
        self.device_index
            .entry(device.to_owned())
            .or_default()
            .insert(metric.to_owned());
        self.partition_index
            .entry(partition.to_owned())
            .or_default()
            .insert(key.clone());
        self.oid_index
            .entry(metric.to_owned())
            .or_default()
            .insert(key.clone());
        self.all.insert(key);
    }

    /// Enters `device` in `site`'s roster; allocates only when the device
    /// is new there.
    pub(crate) fn observe_site(&mut self, device: &str, site: &str) {
        if self
            .site_index
            .get(site)
            .is_some_and(|devices| devices.contains(device))
        {
            return;
        }
        self.site_index
            .entry(site.to_owned())
            .or_default()
            .insert(device.to_owned());
    }

    pub(crate) fn devices(&self) -> impl Iterator<Item = &str> {
        self.device_index.keys().map(String::as_str)
    }

    pub(crate) fn metrics_of(&self, device: &str) -> impl Iterator<Item = &str> {
        self.device_index
            .get(device)
            .into_iter()
            .flatten()
            .map(String::as_str)
    }

    pub(crate) fn devices_at(&self, site: &str) -> impl Iterator<Item = &str> {
        self.site_index
            .get(site)
            .into_iter()
            .flatten()
            .map(String::as_str)
    }

    pub(crate) fn partitions(&self) -> Vec<&str> {
        self.partition_index
            .iter()
            .filter(|(_, keys)| !keys.is_empty())
            .map(|(p, _)| p.as_str())
            .collect()
    }

    pub(crate) fn by_partition<'a>(
        &'a self,
        partition: &str,
    ) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        self.partition_index
            .get(partition)
            .into_iter()
            .flatten()
            .map(|(d, m)| (d.as_str(), m.as_str()))
    }

    /// Evaluates a filter to the sorted set of matching series keys.
    pub(crate) fn select(&self, filter: &LabelFilter) -> BTreeSet<SeriesKey> {
        match filter {
            LabelFilter::Any => self.all.clone(),
            LabelFilter::Eq(Label::Device, value) => self
                .device_index
                .get(value)
                .into_iter()
                .flatten()
                .map(|m| (value.clone(), m.clone()))
                .collect(),
            LabelFilter::Eq(Label::Oid, value) => {
                self.oid_index.get(value).cloned().unwrap_or_default()
            }
            LabelFilter::Eq(Label::Class, value) => {
                self.partition_index.get(value).cloned().unwrap_or_default()
            }
            LabelFilter::Eq(Label::Site, value) => self
                .devices_at(value)
                .flat_map(|d| self.metrics_of(d).map(|m| (d.to_owned(), m.to_owned())))
                .collect(),
            // A site side filters the other side by device membership
            // instead of materialising every series of the site: the
            // analyzer runs `class=p & site=s` for each level-1/2 task.
            LabelFilter::And(a, b) => match (site_of(a), site_of(b)) {
                (_, Some(site)) => self.narrow_to_site(self.select(a), site),
                (Some(site), None) => self.narrow_to_site(self.select(b), site),
                (None, None) => {
                    let left = self.select(a);
                    let right = self.select(b);
                    left.intersection(&right).cloned().collect()
                }
            },
            LabelFilter::Or(a, b) => {
                let mut left = self.select(a);
                left.extend(self.select(b));
                left
            }
        }
    }

    /// Keeps the keys whose device was seen at `site`.
    fn narrow_to_site(&self, mut keys: BTreeSet<SeriesKey>, site: &str) -> BTreeSet<SeriesKey> {
        let devices = self.site_index.get(site);
        keys.retain(|(d, _)| devices.is_some_and(|at| at.contains(d)));
        keys
    }
}

/// The site a filter names, when it is a bare `site=` matcher.
fn site_of(filter: &LabelFilter) -> Option<&str> {
    match filter {
        LabelFilter::Eq(Label::Site, site) => Some(site),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> LabelIndex {
        let mut ix = LabelIndex::default();
        ix.observe("r1", "cpu.load.1", "cpu", "hq");
        ix.observe("r1", "if.1.in-octets", "interface", "hq");
        ix.observe("r2", "cpu.load.1", "cpu", "branch");
        ix.observe("s1", "storage.disk.used-pct", "disk", "branch");
        ix
    }

    fn keys(set: &BTreeSet<SeriesKey>) -> Vec<(&str, &str)> {
        set.iter().map(|(d, m)| (d.as_str(), m.as_str())).collect()
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
        let generic: BTreeSet<SeriesKey> = ix
            .select(&LabelFilter::class("cpu"))
            .intersection(&ix.select(&LabelFilter::site("branch")))
            .cloned()
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
