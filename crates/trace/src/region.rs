//! Global registry of function regions for hot-function attribution.
//!
//! A *region* is a named span of execution ("msm", "bigint_mul", "memcpy",
//! ...). Instrumented code wraps work in [`crate::RegionGuard`]s; the active
//! session attributes micro-ops and wall time to the innermost region, which
//! is how the code analysis reproduces the paper's Table IV (hot functions).

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Identifier of a registered function region.
///
/// Obtained from [`function_id`]; resolves back to its name with
/// [`function_name`]. Ids are process-global and stable for the lifetime of
/// the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctionId(pub(crate) u32);

impl FunctionId {
    /// The raw index of this id (dense, starting at 0).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

struct Registry {
    by_name: HashMap<&'static str, FunctionId>,
    names: Vec<&'static str>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            by_name: HashMap::new(),
            names: Vec::new(),
        })
    })
}

/// Interns `name` and returns its process-global [`FunctionId`].
///
/// Calling this repeatedly with the same name returns the same id. Names
/// must be `'static` because they are kept for the process lifetime;
/// instrumented call sites use string literals.
///
/// # Examples
///
/// ```
/// let a = zkperf_trace::function_id("msm");
/// let b = zkperf_trace::function_id("msm");
/// assert_eq!(a, b);
/// ```
pub fn function_id(name: &'static str) -> FunctionId {
    let mut reg = registry().lock().expect("function registry poisoned");
    if let Some(&id) = reg.by_name.get(name) {
        return id;
    }
    let id = FunctionId(u32::try_from(reg.names.len()).expect("too many regions"));
    reg.names.push(name);
    reg.by_name.insert(name, id);
    id
}

/// Resolves a [`FunctionId`] back to the name it was registered with.
///
/// # Examples
///
/// ```
/// let id = zkperf_trace::function_id("fft");
/// assert_eq!(zkperf_trace::function_name(id), "fft");
/// ```
///
/// # Panics
///
/// Panics if `id` was not produced by [`function_id`] in this process.
pub fn function_name(id: FunctionId) -> &'static str {
    let reg = registry().lock().expect("function registry poisoned");
    reg.names[id.index()]
}

/// Whether `name` has been interned (test support for the "no session, no
/// lock" property of [`crate::region_profile`]).
#[cfg(test)]
pub(crate) fn is_registered(name: &str) -> bool {
    let reg = registry().lock().expect("function registry poisoned");
    reg.by_name.contains_key(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = function_id("test_region_alpha");
        let b = function_id("test_region_alpha");
        let c = function_id("test_region_beta");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(function_name(a), "test_region_alpha");
        assert_eq!(function_name(c), "test_region_beta");
    }

    #[test]
    fn ids_are_dense_indices() {
        let a = function_id("test_region_dense_1");
        let b = function_id("test_region_dense_2");
        assert_eq!(b.index(), a.index() + 1);
    }
}
