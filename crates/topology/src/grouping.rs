//! Stream groupings: how tuples emitted on a stream are partitioned among
//! the tasks of a consuming component.
//!
//! These mirror Storm's built-in groupings. The simulator (`rstorm-sim`)
//! uses them to route tuples between scheduled tasks, which is what makes
//! the network-bound experiments sensitive to placement.

use std::fmt;

/// How a consuming component's tasks partition an input stream.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StreamGrouping {
    /// Tuples are distributed uniformly at random across consumer tasks
    /// (Storm's default and most common grouping).
    Shuffle,
    /// Tuples with equal values in the named fields go to the same consumer
    /// task (hash partitioning), e.g. for per-key aggregation.
    Fields(Vec<String>),
    /// Every tuple is replicated to *all* consumer tasks.
    All,
    /// Every tuple goes to the single consumer task with the lowest id.
    Global,
    /// Prefer a consumer task in the same worker process as the producer;
    /// fall back to shuffle otherwise. This is the grouping whose benefit
    /// R-Storm's colocation amplifies.
    LocalOrShuffle,
}

impl StreamGrouping {
    /// Hash partitioning on the given field names.
    pub fn fields<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self::Fields(names.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for StreamGrouping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Shuffle => f.write_str("shuffle"),
            Self::Fields(names) => write!(f, "fields({})", names.join(",")),
            Self::All => f.write_str("all"),
            Self::Global => f.write_str("global"),
            Self::LocalOrShuffle => f.write_str("local-or-shuffle"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_constructor_collects_names() {
        let g = StreamGrouping::fields(["word", "count"]);
        assert_eq!(
            g,
            StreamGrouping::Fields(vec!["word".to_owned(), "count".to_owned()])
        );
        assert_eq!(g.to_string(), "fields(word,count)");
    }

    #[test]
    fn display_forms() {
        assert_eq!(StreamGrouping::Shuffle.to_string(), "shuffle");
        assert_eq!(StreamGrouping::All.to_string(), "all");
        assert_eq!(StreamGrouping::Global.to_string(), "global");
        assert_eq!(
            StreamGrouping::LocalOrShuffle.to_string(),
            "local-or-shuffle"
        );
    }
}
