//! A tiny single-slot broadcast ("watch") channel.
//!
//! The serving loop publishes [`MetricsSnapshot`](crate::MetricsSnapshot)s
//! here; any number of receivers read the latest value at their own pace.
//! Only the newest value is retained — a slow reader observes fresh state,
//! never a backlog (the right semantics for monitoring, and allocation-free
//! for the publisher beyond one `Arc`).

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

struct Shared<T> {
    state: Mutex<State<T>>,
    cond: Condvar,
}

struct State<T> {
    version: u64,
    value: Option<Arc<T>>,
    closed: bool,
}

/// The publishing side. Dropping it closes the channel.
pub struct WatchSender<T> {
    shared: Arc<Shared<T>>,
}

/// The reading side. Cheap to clone; each clone tracks what it has seen.
pub struct WatchReceiver<T> {
    shared: Arc<Shared<T>>,
    seen: u64,
}

impl<T> Clone for WatchReceiver<T> {
    fn clone(&self) -> Self {
        WatchReceiver {
            shared: Arc::clone(&self.shared),
            seen: self.seen,
        }
    }
}

/// Creates a watch channel with no initial value.
pub fn watch_channel<T>() -> (WatchSender<T>, WatchReceiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            version: 0,
            value: None,
            closed: false,
        }),
        cond: Condvar::new(),
    });
    (
        WatchSender {
            shared: Arc::clone(&shared),
        },
        WatchReceiver { shared, seen: 0 },
    )
}

impl<T> WatchSender<T> {
    /// Replaces the current value and wakes waiting receivers.
    pub fn publish(&self, value: T) {
        let mut st = self.shared.state.lock().expect("watch state poisoned");
        st.version += 1;
        st.value = Some(Arc::new(value));
        drop(st);
        self.shared.cond.notify_all();
    }
}

impl<T> Drop for WatchSender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().expect("watch state poisoned");
        st.closed = true;
        drop(st);
        self.shared.cond.notify_all();
    }
}

impl<T> WatchReceiver<T> {
    /// The latest published value, regardless of whether it was seen
    /// before. `None` if nothing was published yet.
    pub fn latest(&mut self) -> Option<Arc<T>> {
        let st = self.shared.state.lock().expect("watch state poisoned");
        self.seen = st.version;
        st.value.clone()
    }

    /// Blocks until a value newer than the last one seen is published (or
    /// `timeout` elapses / the sender is dropped), returning it.
    pub fn wait_for_update(&mut self, timeout: Duration) -> Option<Arc<T>> {
        let mut st = self.shared.state.lock().expect("watch state poisoned");
        // Wall-clock timeout plumbing for live subscribers; replay
        // determinism comes from the recorded trace, not this wait.
        #[allow(clippy::disallowed_methods)]
        let deadline = std::time::Instant::now() + timeout;
        while st.version == self.seen && !st.closed {
            #[allow(clippy::disallowed_methods)]
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, _) = self
                .shared
                .cond
                .wait_timeout(st, left)
                .expect("watch state poisoned");
            st = guard;
        }
        if st.version == self.seen {
            return None; // closed without news
        }
        self.seen = st.version;
        st.value.clone()
    }

    /// Whether the sender is gone.
    pub fn is_closed(&self) -> bool {
        self.shared
            .state
            .lock()
            .expect("watch state poisoned")
            .closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publishes_latest_value_only() {
        let (tx, mut rx) = watch_channel::<u32>();
        assert!(rx.latest().is_none());
        tx.publish(1);
        tx.publish(2);
        assert_eq!(*rx.latest().unwrap(), 2);
        // Nothing new: a short wait times out.
        assert!(rx.wait_for_update(Duration::from_millis(10)).is_none());
        tx.publish(3);
        assert_eq!(*rx.wait_for_update(Duration::from_secs(1)).unwrap(), 3);
    }

    #[test]
    fn wakes_blocked_receivers_across_threads() {
        let (tx, mut rx) = watch_channel::<&'static str>();
        let waiter =
            std::thread::spawn(move || rx.wait_for_update(Duration::from_secs(5)).map(|v| *v));
        std::thread::sleep(Duration::from_millis(20));
        tx.publish("hello");
        assert_eq!(waiter.join().unwrap(), Some("hello"));
    }

    #[test]
    fn close_unblocks_waiters() {
        let (tx, mut rx) = watch_channel::<u8>();
        drop(tx);
        assert!(rx.is_closed());
        assert!(rx.wait_for_update(Duration::from_secs(1)).is_none());
    }
}
