package service

import (
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
)

// WritePrometheus renders the service's metrics in the Prometheus text
// exposition format (version 0.0.4) — the `GET /metrics?format=prometheus`
// body. Every family is one tagged Snapshot field, in field order, so the
// JSON and Prometheus views share a single definition; the search-latency
// summary closes the exposition, all four legs from one read of the window.
func (s *Service) WritePrometheus(w io.Writer) error {
	lat := s.metrics.latency()
	snap := reflect.ValueOf(s.snapshot(lat))

	var b strings.Builder
	for i := 0; i < snap.NumField(); i++ {
		f := snap.Type().Field(i)
		name, typ, ok := strings.Cut(f.Tag.Get("prom"), ",")
		if !ok {
			continue // a quantile leg of the summary below
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			name, f.Tag.Get("help"), name, typ, name, promValue(snap.Field(i)))
	}

	// The latency summary: window percentiles as quantile legs, lifetime
	// count and sum — the Prometheus idiom for a client-side histogram.
	const sum = "tofu_search_duration_seconds"
	fmt.Fprintf(&b, "# HELP %s Wall-clock duration of completed searches.\n# TYPE %s summary\n", sum, sum)
	fmt.Fprintf(&b, "%s{quantile=\"0.5\"} %s\n", sum, formatPromFloat(lat.p50.Seconds()))
	fmt.Fprintf(&b, "%s{quantile=\"0.99\"} %s\n", sum, formatPromFloat(lat.p99.Seconds()))
	fmt.Fprintf(&b, "%s_sum %s\n", sum, formatPromFloat(lat.sum.Seconds()))
	fmt.Fprintf(&b, "%s_count %d\n", sum, lat.count)

	_, err := io.WriteString(w, b.String())
	return err
}

// promValue renders one Snapshot field as a sample value: integers as
// they are, booleans as 0/1, floats through formatPromFloat.
func promValue(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return "1"
		}
		return "0"
	case reflect.Float64:
		return formatPromFloat(v.Float())
	default:
		return strconv.FormatInt(v.Int(), 10)
	}
}

// formatPromFloat renders a float the way Prometheus parses fastest: bare
// integers stay integral, everything else is shortest-round-trip.
func formatPromFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
