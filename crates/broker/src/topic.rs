//! MQTT topic names and filters.
//!
//! Topics are `/`-separated level strings (`ctt/trondheim/devices/xyz/up`).
//! Filters may use the single-level wildcard `+` and the multi-level
//! wildcard `#` (only as the final level), with MQTT 3.1.1 matching rules.

use std::fmt;
use std::sync::Arc;

/// A concrete topic name (no wildcards). Shared by reference count: a
/// message is cloned once per subscriber queue and once more into the QoS1
/// in-flight store, and none of those clones copies the string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Topic(Arc<str>);

/// A subscription filter (may contain wildcards).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TopicFilter(String);

/// Errors validating topics/filters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopicError {
    /// Empty string.
    Empty,
    /// Topic names may not contain wildcards.
    WildcardInTopic,
    /// `#` must be the last level.
    HashNotLast,
    /// `+`/`#` must occupy an entire level.
    WildcardNotAlone,
}

impl fmt::Display for TopicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopicError::Empty => f.write_str("empty topic"),
            TopicError::WildcardInTopic => f.write_str("wildcard in topic name"),
            TopicError::HashNotLast => f.write_str("'#' must be the final level"),
            TopicError::WildcardNotAlone => f.write_str("wildcard must occupy a whole level"),
        }
    }
}

impl std::error::Error for TopicError {}

impl Topic {
    /// Validate and construct a topic name.
    pub fn new(s: impl Into<String>) -> Result<Topic, TopicError> {
        let s = s.into();
        Topic::check(&s)?;
        Ok(Topic(s.into()))
    }

    /// The rule [`Topic::new`] validates by: non-empty, no wildcard. It
    /// allocates nothing, so a debug build checks each topic for free.
    fn check(s: &str) -> Result<(), TopicError> {
        if s.is_empty() {
            return Err(TopicError::Empty);
        }
        if s.contains('+') || s.contains('#') {
            return Err(TopicError::WildcardInTopic);
        }
        Ok(())
    }

    /// Crate-internal infallible constructor for topics assembled from
    /// pre-sanitized levels (see the bridge's level sanitizer). Validity is
    /// debug-asserted; release builds trust the caller.
    pub(crate) fn from_sanitized(s: &str) -> Topic {
        debug_assert!(Topic::check(s).is_ok(), "unsanitized topic: {s:?}");
        Topic(s.into())
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl TopicFilter {
    /// Validate and construct a filter.
    pub fn new(s: impl Into<String>) -> Result<TopicFilter, TopicError> {
        let s = s.into();
        if s.is_empty() {
            return Err(TopicError::Empty);
        }
        let levels: Vec<&str> = s.split('/').collect();
        for (i, level) in levels.iter().enumerate() {
            if level.contains('#') {
                if *level != "#" {
                    return Err(TopicError::WildcardNotAlone);
                }
                if i != levels.len() - 1 {
                    return Err(TopicError::HashNotLast);
                }
            }
            if level.contains('+') && *level != "+" {
                return Err(TopicError::WildcardNotAlone);
            }
        }
        Ok(TopicFilter(s))
    }

    /// Crate-internal infallible constructor for filters assembled from
    /// pre-sanitized levels. Validity is debug-asserted; release builds
    /// trust the caller.
    pub(crate) fn from_sanitized(s: String) -> TopicFilter {
        debug_assert!(
            TopicFilter::new(s.as_str()).is_ok(),
            "unsanitized filter: {s:?}"
        );
        TopicFilter(s)
    }

    /// MQTT 3.1.1 §4.7 matching: does this filter match `topic`? The
    /// broker's only router, so it walks both strings in place.
    pub fn matches(&self, topic: &Topic) -> bool {
        let mut f = self.0.split('/');
        let mut t = topic.0.split('/');
        loop {
            match (f.next(), t.next()) {
                // `#` matches the rest, none included: `a/#` matches `a`.
                (Some("#"), _) => return true,
                // `+` matches any one level, an empty one included.
                (Some("+"), Some(_)) => continue,
                (Some(fl), Some(tl)) if fl == tl => continue,
                (None, None) => return true,
                _ => return false,
            }
        }
    }
}

impl fmt::Display for TopicFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topic(s: &str) -> Topic {
        Topic::new(s).unwrap()
    }
    fn filter(s: &str) -> TopicFilter {
        TopicFilter::new(s).unwrap()
    }

    #[test]
    fn topic_validation() {
        assert!(Topic::new("a/b/c").is_ok());
        assert_eq!(Topic::new(""), Err(TopicError::Empty));
        assert_eq!(Topic::new("a/+/c"), Err(TopicError::WildcardInTopic));
        assert_eq!(Topic::new("a/#"), Err(TopicError::WildcardInTopic));
    }

    #[test]
    fn filter_validation() {
        assert!(TopicFilter::new("a/+/c").is_ok());
        assert!(TopicFilter::new("a/#").is_ok());
        assert!(TopicFilter::new("#").is_ok());
        assert!(TopicFilter::new("+").is_ok());
        assert_eq!(TopicFilter::new(""), Err(TopicError::Empty));
        assert_eq!(TopicFilter::new("a/#/c"), Err(TopicError::HashNotLast));
        assert_eq!(TopicFilter::new("a/b#"), Err(TopicError::WildcardNotAlone));
        assert_eq!(
            TopicFilter::new("a/b+/c"),
            Err(TopicError::WildcardNotAlone)
        );
    }

    #[test]
    fn exact_match() {
        assert!(filter("a/b/c").matches(&topic("a/b/c")));
        assert!(!filter("a/b/c").matches(&topic("a/b")));
        assert!(!filter("a/b").matches(&topic("a/b/c")));
        assert!(!filter("a/b/c").matches(&topic("a/b/d")));
    }

    #[test]
    fn plus_matches_single_level() {
        assert!(filter("a/+/c").matches(&topic("a/b/c")));
        assert!(filter("a/+/c").matches(&topic("a/x/c")));
        assert!(!filter("a/+/c").matches(&topic("a/b/x/c")));
        assert!(!filter("a/+").matches(&topic("a")));
        assert!(filter("+/+").matches(&topic("a/b")));
    }

    #[test]
    fn hash_matches_subtree() {
        assert!(filter("a/#").matches(&topic("a/b")));
        assert!(filter("a/#").matches(&topic("a/b/c/d")));
        assert!(filter("#").matches(&topic("anything/at/all")));
        assert!(!filter("a/#").matches(&topic("b/c")));
    }

    #[test]
    fn ctt_topic_shapes() {
        let up = topic("ctt/trondheim/devices/70B3D50000000001/up");
        assert!(filter("ctt/+/devices/+/up").matches(&up));
        assert!(filter("ctt/trondheim/#").matches(&up));
        assert!(!filter("ctt/vejle/#").matches(&up));
    }

    /// The edges no other case pins: `#` and its parent level, `+` and a
    /// missing level, empty levels.
    #[test]
    fn edge_levels() {
        for (f, t, expect) in [
            ("a/#", "a", true),
            ("+/#", "a", true),
            ("a/+/#", "a", false),
            ("a/+", "a", false),
            ("a/#", "ab", false),
            ("a/+/b", "a//b", true),
            ("a//b", "a//b", true),
            ("a/b", "a//b", false),
            ("a/+", "a/", true),
            ("a/#", "a/", true),
            ("+/+", "/", true),
            ("+", "/", false),
            ("#", "/", true),
            ("/#", "/a", true),
            ("+", "/a", false),
        ] {
            assert_eq!(filter(f).matches(&topic(t)), expect, "{f} vs {t}");
        }
    }

    #[test]
    fn display_roundtrip() {
        assert_eq!(topic("a/b").to_string(), "a/b");
        assert_eq!(filter("a/#").to_string(), "a/#");
    }
}
