//! Monotonic-clock timers over the simulator's wheel.
//!
//! The simulator schedules timers on a [`bft_net::EventWheel`] keyed by
//! virtual microseconds. The wheel itself never cared what a tick means
//! (see [`bft_net::EventWheel::push_tick`]); here the same structure is
//! keyed by microseconds of `Instant` time since the process started, so
//! the runtime gets the wheel's O(1) scheduling and generation-stamped
//! lazy cancellation without a second timer implementation.

use bft_net::{EventKey, EventWheel};
use bft_types::SimDuration;
use std::hash::Hash;
use std::time::{Duration, Instant};

/// Keyed single-shot timers on the real clock: setting a key re-arms it,
/// exactly like the simulator's `(node, TimerId)` generation map.
pub struct RtTimers<T: Copy + Eq + Hash> {
    origin: Instant,
    wheel: EventWheel<T>,
    keys: bft_fxhash::FastMap<T, EventKey>,
}

impl<T: Copy + Eq + Hash> Default for RtTimers<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Eq + Hash> RtTimers<T> {
    /// Creates an empty timer set; tick zero is "now".
    pub fn new() -> Self {
        RtTimers {
            origin: Instant::now(),
            wheel: EventWheel::new(),
            keys: bft_fxhash::FastMap::default(),
        }
    }

    /// Microseconds of monotonic time since construction.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Arms (or re-arms) timer `id` to fire `after` from now. Protocol
    /// timeouts arrive as [`SimDuration`] virtual microseconds; the
    /// runtime reads them one-to-one as real microseconds.
    pub fn set(&mut self, id: T, after: SimDuration) {
        if let Some(key) = self.keys.remove(&id) {
            self.wheel.cancel(key);
        }
        // Clamp to the wheel's floor: a clock read racing a just-popped
        // tick must not schedule into the past.
        let at = (self.now_us() + after.as_micros()).max(self.wheel.floor_tick());
        let key = self.wheel.push_tick(at, id);
        self.keys.insert(id, key);
    }

    /// Disarms timer `id` (no-op when not armed).
    pub fn cancel(&mut self, id: T) {
        if let Some(key) = self.keys.remove(&id) {
            self.wheel.cancel(key);
        }
    }

    /// Time until the next armed timer is due (zero when overdue), or
    /// `None` when nothing is armed.
    pub fn until_next(&mut self) -> Option<Duration> {
        let tick = self.wheel.next_tick()?;
        Some(Duration::from_micros(tick.saturating_sub(self.now_us())))
    }

    /// Pops one timer that is due now, if any.
    pub fn pop_due(&mut self) -> Option<T> {
        let now = self.now_us();
        match self.wheel.next_tick() {
            Some(tick) if tick <= now => {
                let (_, id) = self.wheel.pop_tick().expect("peeked");
                self.keys.remove(&id);
                Some(id)
            }
            _ => None,
        }
    }

    /// Number of armed timers.
    pub fn armed(&self) -> usize {
        self.keys.len()
    }

    /// Disarms and returns every armed timer that `pick` selects, due or
    /// not. The chaos runner's retransmission storms force a client's
    /// armed timers to fire at once, the live analogue of the simulator's
    /// `ClientRetransmitNow` fault.
    pub fn drain_armed(&mut self, pick: impl Fn(&T) -> bool) -> Vec<T> {
        let ids: Vec<T> = self.keys.keys().copied().filter(|id| pick(id)).collect();
        for id in &ids {
            if let Some(key) = self.keys.remove(id) {
                self.wheel.cancel(key);
            }
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_fires_after_delay() {
        let mut t = RtTimers::new();
        t.set(1u32, SimDuration::from_micros(500));
        assert_eq!(t.armed(), 1);
        assert!(t.pop_due().is_none(), "not due yet");
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(t.pop_due(), Some(1));
        assert_eq!(t.armed(), 0);
        assert!(t.pop_due().is_none());
    }

    #[test]
    fn rearm_replaces_and_cancel_disarms() {
        let mut t = RtTimers::new();
        t.set(7u32, SimDuration::from_micros(100));
        t.set(7u32, SimDuration::from_secs(3600)); // Re-arm far out.
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.pop_due().is_none(), "old deadline was replaced");
        t.set(8u32, SimDuration::from_micros(1));
        t.cancel(8u32);
        std::thread::sleep(Duration::from_millis(1));
        assert!(t.pop_due().is_none(), "canceled timer never fires");
        assert_eq!(t.armed(), 1);
    }

    #[test]
    fn until_next_tracks_earliest() {
        let mut t = RtTimers::new();
        assert!(t.until_next().is_none());
        t.set('a', SimDuration::from_secs(10));
        t.set('b', SimDuration::from_millis(1));
        let wait = t.until_next().expect("armed");
        assert!(wait <= Duration::from_millis(1));
    }

    #[test]
    fn drain_armed_fires_everything_once() {
        let mut t = RtTimers::new();
        t.set('a', SimDuration::from_secs(3600));
        t.set('b', SimDuration::from_secs(7200));
        t.set('c', SimDuration::from_secs(7200));
        assert_eq!(t.drain_armed(|&id| id == 'c'), vec!['c']);
        let mut drained = t.drain_armed(|_| true);
        drained.sort_unstable();
        assert_eq!(drained, vec!['a', 'b']);
        assert_eq!(t.armed(), 0);
        std::thread::sleep(Duration::from_millis(1));
        assert!(t.pop_due().is_none(), "drained timers are disarmed");
    }

    #[test]
    fn zero_delay_is_due_immediately() {
        let mut t = RtTimers::new();
        t.set(0u8, SimDuration::ZERO);
        std::thread::sleep(Duration::from_micros(10));
        assert_eq!(t.pop_due(), Some(0));
    }
}
