//! Window trap descriptions.

use crate::window::WindowIndex;
use std::fmt;

/// A window trap raised by a `save` or `restore` instruction entering an
/// invalid (WIM-marked) window.
///
/// The machine raises traps; a window-management scheme (in the
/// `regwin-traps` crate) resolves them, exactly as the paper's modified
/// SPARC trap handlers do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowTrap {
    /// A `save` tried to enter invalid window `target`: the register file
    /// has no usable window above the current one.
    Overflow {
        /// The invalid window the `save` tried to enter (above the CWP).
        target: WindowIndex,
    },
    /// A `restore` tried to enter invalid window `target`: the caller's
    /// window is no longer in the register file.
    Underflow {
        /// The invalid window the `restore` tried to enter (below the CWP).
        target: WindowIndex,
    },
}

impl WindowTrap {
    /// The invalid window the trapped instruction tried to enter.
    pub fn target(self) -> WindowIndex {
        match self {
            WindowTrap::Overflow { target } | WindowTrap::Underflow { target } => target,
        }
    }
}

impl fmt::Display for WindowTrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowTrap::Overflow { target } => write!(f, "window overflow trap at {target}"),
            WindowTrap::Underflow { target } => write!(f, "window underflow trap at {target}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let t = WindowTrap::Overflow { target: WindowIndex::new(3) };
        assert!(matches!(t, WindowTrap::Overflow { .. }));
        assert_eq!(t.target(), WindowIndex::new(3));

        let u = WindowTrap::Underflow { target: WindowIndex::new(5) };
        assert!(matches!(u, WindowTrap::Underflow { .. }));
        assert_eq!(u.target(), WindowIndex::new(5));
    }

    #[test]
    fn display() {
        let t = WindowTrap::Overflow { target: WindowIndex::new(1) };
        assert_eq!(t.to_string(), "window overflow trap at W1");
    }
}
