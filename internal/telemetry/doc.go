// Package telemetry provides the observability layer of this
// reproduction: a lock-cheap metrics registry (atomic counters, gauges
// and bounded histograms with quantile estimation, optionally labeled),
// the per-transaction flight recorder with its slowlog, the hop trees
// /debug/traces rebuilds from the recorder's events, the SLO burn-rate
// engine, and HTTP handlers exposing all of it in Prometheus text and
// JSON form.
//
// Every instrument is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, *Metrics, *FlightRecorder or *SLO are no-ops, so library
// code can thread instruments through hot paths unconditionally and pay
// only a nil check (~1ns) when telemetry is disabled.
//
// The daemons mount the exposition handlers through internal/daemon;
// DESIGN.md and OPERATIONS.md catalog the metric families and flight
// events the system emits.
package telemetry
