//! Identifiers for cluster entities.
//!
//! An id holds its text behind an `Arc<str>`, so cloning one — as every
//! [`WorkerSlot`] handed out by a scheduler does — shares the text
//! instead of allocating a copy. Equality, ordering, hashing and `Debug`
//! are those of the text.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

macro_rules! string_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(Arc<str>);

        impl $name {
            /// Creates a new identifier.
            pub fn new(id: impl Into<String>) -> Self {
                Self(Arc::from(id.into()))
            }

            /// Returns the identifier as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                Self(Arc::from(s))
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                Self(Arc::from(s))
            }
        }

        impl Borrow<str> for $name {
            fn borrow(&self) -> &str {
                &self.0
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }
    };
}

string_id! {
    /// Identifier of a worker node (a supervisor machine).
    NodeId
}

string_id! {
    /// Identifier of a server rack (the paper's "VLAN" / sub-cluster).
    RackId
}

/// A worker slot: one worker-process port on a node. Storm assigns
/// executors to slots; each slot hosts exactly one worker process, so two
/// tasks in the same slot communicate intra-process.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerSlot {
    /// The node this slot lives on.
    pub node: NodeId,
    /// The supervisor port identifying the worker process.
    pub port: u16,
}

impl WorkerSlot {
    /// Creates a slot for `node` at `port`.
    pub fn new(node: impl Into<NodeId>, port: u16) -> Self {
        Self {
            node: node.into(),
            port,
        }
    }
}

impl fmt::Display for WorkerSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_display_and_ordering() {
        let a = WorkerSlot::new("node-1", 6700);
        let b = WorkerSlot::new("node-1", 6701);
        assert_eq!(a.to_string(), "node-1:6700");
        assert!(a < b);
    }

    #[test]
    fn ids_roundtrip() {
        let n: NodeId = "n3".into();
        assert_eq!(n.as_str(), "n3");
        let r = RackId::new(String::from("rack-0"));
        assert_eq!(r.to_string(), "rack-0");
        assert_eq!(format!("{n:?}"), r#"NodeId("n3")"#, "Debug shows the text");
    }

    #[test]
    fn clones_share_the_text() {
        let a = NodeId::new("node-1");
        let b = a.clone();
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(WorkerSlot::new(b, 6700).node, a);
    }
}
