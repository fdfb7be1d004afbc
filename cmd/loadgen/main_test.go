package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestClosedLoopSelfHosted runs the full path: self-hosted fleet,
// closed-loop generation, quantile report.
func TestClosedLoopSelfHosted(t *testing.T) {
	outFile := filepath.Join(t.TempDir(), "report.json")
	var buf strings.Builder
	err := run([]string{
		"--mode", "closed", "--workers", "2", "--duration", "300ms",
		"--devices", "2", "--out", outFile,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if rep.Sent == 0 || rep.OK == 0 {
		t.Errorf("report = %+v, want traffic", rep)
	}
	if rep.OK+rep.Shed+rep.Errors != rep.Sent {
		t.Errorf("conservation broken: ok %d + shed %d + errors %d != sent %d",
			rep.OK, rep.Shed, rep.Errors, rep.Sent)
	}
	if rep.LatencyMs.P50 <= 0 || rep.LatencyMs.P99 < rep.LatencyMs.P50 {
		t.Errorf("quantiles = %+v, want 0 < p50 <= p99", rep.LatencyMs)
	}
	if !rep.Server.SelfHosted || rep.Server.Devices != 2 {
		t.Errorf("server info = %+v", rep.Server)
	}
}

// TestOpenLoopAdmissionShed verifies the open loop reports typed
// sheds when the self-hosted admission gate saturates, and that
// offered-load conservation holds.
func TestOpenLoopAdmissionShed(t *testing.T) {
	var buf strings.Builder
	outFile := filepath.Join(t.TempDir(), "report.json")
	err := run([]string{
		"--mode", "open", "--rps", "300", "--duration", "400ms",
		"--devices", "2", "--admission-rate", "20", "--admission-burst", "5",
		"--out", outFile,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	data, _ := os.ReadFile(outFile)
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Errorf("open loop at 300 rps against 2×20/s admission shed nothing: %+v", rep)
	}
	if rep.OK+rep.Shed+rep.Errors != rep.Sent {
		t.Errorf("conservation broken: %+v", rep)
	}
}

// TestAddrSchemeDefault accepts the bare host:port form that
// `skynetsim serve --addr` takes, defaulting the http:// scheme.
func TestAddrSchemeDefault(t *testing.T) {
	fleet, err := startFleet(2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.close()
	hostport := strings.TrimPrefix(fleet.base, "http://")
	outFile := filepath.Join(t.TempDir(), "report.json")
	var buf strings.Builder
	err = run([]string{
		"--addr", hostport, "--mode", "closed", "--workers", "1",
		"--duration", "100ms", "--out", outFile,
	}, &buf)
	if err != nil {
		t.Fatalf("run with schemeless --addr: %v\n%s", err, buf.String())
	}
	data, _ := os.ReadFile(outFile)
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Server.Addr != fleet.base {
		t.Errorf("Server.Addr = %q, want scheme-defaulted %q", rep.Server.Addr, fleet.base)
	}
	if rep.OK == 0 {
		t.Errorf("no successful requests over schemeless addr: %+v", rep)
	}
}

// TestLoadgenMetricNames pins the loadgen.* instrument family to the
// telemetry names table.
func TestLoadgenMetricNames(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Histogram("loadgen.latency_ms")
	reg.Counter("loadgen.requests", "result", "ok")
	reg.Counter("loadgen.requests", "result", "shed")
	reg.Counter("loadgen.requests", "result", "error")
	reg.Counter("loadgen.overflow")
	if err := telemetry.CheckNames(reg.Names()); err != nil {
		t.Errorf("CheckNames: %v", err)
	}
}

// TestParseFlagsValidation covers the rejection paths.
func TestParseFlagsValidation(t *testing.T) {
	var buf strings.Builder
	for _, args := range [][]string{
		{"--mode", "sideways"},
		{"--workers", "0"},
		{"--duration", "0s"},
		{"--rps", "-5"},
		{"stray-arg"},
	} {
		if _, err := parseFlags(args, &buf); err == nil {
			t.Errorf("parseFlags(%v) succeeded, want error", args)
		}
	}
}
