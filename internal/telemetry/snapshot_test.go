package telemetry

import (
	"strings"
	"testing"
	"time"
)

// TestHistogramSnapshot: Snapshot must agree with the individual accessors
// and carry the p999 the serving harness reports.
func TestHistogramSnapshot(t *testing.T) {
	h := &Histogram{bounds: DefaultWaitBounds()}
	if got := h.Snapshot(); got != (HistSnapshot{}) {
		t.Errorf("empty snapshot = %+v, want zero", got)
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Errorf("Count = %d, want 1000", s.Count)
	}
	if s.P50 != h.Quantile(0.50) || s.P99 != h.Quantile(0.99) || s.P999 != h.Quantile(0.999) {
		t.Errorf("snapshot quantiles diverge from Quantile(): %+v", s)
	}
	if s.Max != h.Max() {
		t.Errorf("Max = %v, want %v", s.Max, h.Max())
	}
	if s.P50 > s.P99 || s.P99 > s.P999 || s.P999 > s.Max {
		t.Errorf("quantiles not monotone: %+v", s)
	}
	if s.Mean <= 0 || s.Mean > s.Max {
		t.Errorf("Mean = %v out of range (max %v)", s.Mean, s.Max)
	}
}

// TestRegistryReportCarriesP999: the rendered report must include the tail
// quantile the SLO work keys on.
func TestRegistryReportCarriesP999(t *testing.T) {
	r := NewRegistry()
	r.Observe(LayerRuntime, "server_queue_wait", 5*time.Millisecond)
	rep := r.Report()
	if !strings.Contains(rep, "p999=") {
		t.Errorf("Report() lacks p999: %s", rep)
	}
}
