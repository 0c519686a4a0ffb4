//! Declarative counter sets: each counter is declared once and every
//! consumer enumerates it.
//!
//! A [`counter_set!`](crate::counter_set) declaration names, per counter,
//! the field, its kind, its full metric name, and (as its doc comment) its
//! help text. From that one declaration the macro generates the live
//! relaxed atomics, the copied-out snapshot struct, and the
//! [`CounterSet`] enumeration the Prometheus/JSON collector and the `afsh`
//! counter lines loop over — so adding a counter needs no exporter or shell
//! code. Recording stays hand-written on the live struct (one relaxed
//! atomic op on a named field per record).

use crate::registry::Metric;

/// Whether a declared counter only grows or is an instantaneous level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Monotonically increasing count.
    Counter,
    /// Instantaneous level or high-water mark.
    Gauge,
}

/// One declared counter with its current value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// Full metric name, e.g. `"afs_fleet_polls_total"`.
    pub name: &'static str,
    /// Short name for shell output, e.g. `"polls"`.
    pub label: &'static str,
    /// Counter or gauge.
    pub kind: CounterKind,
    /// Help text (the declaration's doc comment).
    pub help: &'static str,
    /// The value at snapshot time.
    pub value: u64,
}

impl Counter {
    /// The counter as an exportable [`Metric`] of its declared kind.
    pub fn metric(&self) -> Metric {
        match self.kind {
            CounterKind::Counter => Metric::counter(self.name, self.value),
            CounterKind::Gauge => Metric::gauge(self.name, self.value),
        }
    }
}

/// A snapshot whose fields were declared with
/// [`counter_set!`](crate::counter_set): enumerates them in declaration
/// order.
pub trait CounterSet {
    /// Every declared counter with its snapshot value.
    fn counters(&self) -> Vec<Counter>;

    /// The counters as `label=value` pairs on one line, for shell output.
    fn counter_line(&self) -> String {
        let pairs: Vec<String> = self
            .counters()
            .iter()
            .map(|c| format!("{}={}", c.label, c.value))
            .collect();
        pairs.join(" ")
    }
}

/// Declares a counter set: a live struct of relaxed atomics, its snapshot
/// struct, `snapshot()`, and the [`CounterSet`] enumeration.
///
/// ```
/// afs_telemetry::counter_set! {
///     /// Live example counters.
///     pub struct ExampleGauges => ExampleSnapshot {
///         /// Things done.
///         done: Counter "example_done_total",
///         /// Things queued right now.
///         queued: Gauge "example_queued" as "now",
///     }
/// }
/// use afs_telemetry::CounterSet;
/// let live = ExampleGauges::default();
/// assert_eq!(live.snapshot().counter_line(), "done=0 now=0");
/// ```
///
/// Each counter is `field: Kind "metric_name" [as "label"]`, where `Kind`
/// is a [`CounterKind`] variant and the shell label defaults to the field
/// name. The doc comment is the help text and documents the snapshot
/// field. Non-counter fields of the live struct (which must implement
/// `Default` and `Debug`) follow the counters after a `;`.
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $live:ident => $snap:ident {
            $(
                $(#[doc = $doc:literal])*
                $field:ident : $kind:ident $name:literal $(as $label:literal)?
            ),* $(,)?
            $(;
                $(
                    $(#[$xmeta:meta])*
                    $xfield:ident : $xty:ty
                ),* $(,)?
            )?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $live {
            $($field: ::std::sync::atomic::AtomicU64,)*
            $($($(#[$xmeta])* $xfield: $xty,)*)?
        }

        #[doc = concat!("A point-in-time copy of [`", stringify!($live), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $snap {
            $($(#[doc = $doc])* pub $field: u64,)*
        }

        impl $live {
            /// Copies out the current values.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $($field: self.$field.load(::std::sync::atomic::Ordering::Relaxed),)*
                }
            }
        }

        impl $crate::CounterSet for $snap {
            fn counters(&self) -> ::std::vec::Vec<$crate::Counter> {
                ::std::vec![$(
                    $crate::Counter {
                        name: $name,
                        label: $crate::__counter_label!($field $(, $label)?),
                        kind: $crate::CounterKind::$kind,
                        help: concat!($($doc),*).trim_ascii(),
                        value: self.$field,
                    },
                )*]
            }
        }
    };
}

/// The shell label of a declared counter: the `as` override, else the
/// field name.
#[doc(hidden)]
#[macro_export]
macro_rules! __counter_label {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident, $label:literal) => {
        $label
    };
}
