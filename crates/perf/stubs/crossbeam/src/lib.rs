//! Offline stand-in for `crossbeam` (see ../README.md): `channel` only — a
//! multi-producer multi-consumer queue behind one mutex and two condvars,
//! with crossbeam's disconnect semantics (a receive drains what is queued
//! before it reports disconnection).

#![forbid(unsafe_code)]

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// `None` = unbounded. A bound of 0 (rendezvous) is served as 1.
        cap: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    pub struct Sender<T>(Arc<Shared<T>>);
    pub struct Receiver<T>(Arc<Shared<T>>);

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            cap: cap.map(|c| c.max(1)),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap))
    }

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum SendTimeoutError<T> {
        Timeout(T),
        Disconnected(T),
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    macro_rules! error_boilerplate {
        ($($name:ident $(<$t:ident>)? => $text:expr;)*) => {$(
            impl$(<$t>)? fmt::Display for $name$(<$t>)? {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    f.write_str($text)
                }
            }
            impl$(<$t>)? std::error::Error for $name$(<$t>)? where Self: fmt::Debug {}
        )*};
    }
    error_boilerplate! {
        SendError<T> => "sending on a disconnected channel";
        TrySendError<T> => "sending on a full or disconnected channel";
        SendTimeoutError<T> => "timed out or disconnected while sending";
        RecvError => "receiving on an empty and disconnected channel";
        TryRecvError => "receiving on an empty or disconnected channel";
        RecvTimeoutError => "timed out or disconnected while receiving";
    }
    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }
    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                TrySendError::Full(_) => "Full(..)",
                TrySendError::Disconnected(_) => "Disconnected(..)",
            })
        }
    }
    impl<T> fmt::Debug for SendTimeoutError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                SendTimeoutError::Timeout(_) => "Timeout(..)",
                SendTimeoutError::Disconnected(_) => "Disconnected(..)",
            })
        }
    }

    impl<T> Sender<T> {
        fn is_full(&self, st: &State<T>) -> bool {
            self.0.cap.is_some_and(|c| st.queue.len() >= c)
        }

        fn push(&self, mut st: MutexGuard<'_, State<T>>, value: T) {
            st.queue.push_back(value);
            drop(st);
            self.0.not_empty.notify_one();
        }

        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.0.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                if !self.is_full(&st) {
                    self.push(st, value);
                    return Ok(());
                }
                st = self
                    .0
                    .not_full
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let st = self.0.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if self.is_full(&st) {
                return Err(TrySendError::Full(value));
            }
            self.push(st, value);
            Ok(())
        }

        pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
            let deadline = Instant::now() + timeout;
            let mut st = self.0.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendTimeoutError::Disconnected(value));
                }
                if !self.is_full(&st) {
                    self.push(st, value);
                    return Ok(());
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(SendTimeoutError::Timeout(value));
                }
                st = self
                    .0
                    .not_full
                    .wait_timeout(st, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }

        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        fn pop(&self, mut st: MutexGuard<'_, State<T>>) -> Option<T> {
            let value = st.queue.pop_front()?;
            drop(st);
            self.0.not_full.notify_one();
            Some(value)
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.lock();
            loop {
                if !st.queue.is_empty() {
                    return self.pop(st).ok_or(RecvError);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .0
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let st = self.0.lock();
            if st.queue.is_empty() {
                return Err(if st.senders == 0 {
                    TryRecvError::Disconnected
                } else {
                    TryRecvError::Empty
                });
            }
            self.pop(st).ok_or(TryRecvError::Empty)
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_deadline(Instant::now() + timeout)
        }

        pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
            let mut st = self.0.lock();
            loop {
                if !st.queue.is_empty() {
                    return self.pop(st).ok_or(RecvTimeoutError::Timeout);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                st = self
                    .0
                    .not_empty
                    .wait_timeout(st, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }

        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Blocking iterator: ends when the channel is empty and disconnected.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.recv().ok())
        }

        /// Non-blocking iterator over what is queued now.
        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.try_recv().ok())
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> IntoIter<T> {
            IntoIter(self)
        }
    }

    pub struct IntoIter<T>(Receiver<T>);

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.recv().ok()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }
}
