//! Offline shim for `parking_lot`: the `Mutex` subset this workspace uses.
//!
//! A facade over `std::sync::Mutex` whose `lock()` returns the guard
//! directly. Poisoning is treated the way parking_lot treats it: a
//! poisoned lock simply keeps working.

use std::sync::MutexGuard;

pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::Mutex;

    #[test]
    fn lock_and_into_inner() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(m.into_inner(), 42);
    }
}
