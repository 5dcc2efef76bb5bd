package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"time"
)

// processStart anchors the uptime and start-time metrics. Package
// init runs before main, so this is process start for all practical
// purposes.
var processStart = time.Now()

// Uptime returns seconds since process start.
func Uptime() float64 { return time.Since(processStart).Seconds() }

// Version returns the main module's version from build info
// ("(devel)" for plain `go build` trees).
func Version() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// RegisterBuildInfo adds the identity metrics both daemons expose:
// the constant-1 nmo_build_info gauge whose labels carry what is
// running, the process start time in the Prometheus convention (so
// `time() - nmo_process_start_time_seconds` is uptime), and the
// uptime itself as the process's own clock reads it.
func RegisterBuildInfo(reg *Registry) {
	reg.GaugeFunc("nmo_build_info",
		"Constant 1; labels identify the running build.",
		func() float64 { return 1 },
		L("version", Version()), L("goversion", runtime.Version()), L("goos", runtime.GOOS))
	start := float64(processStart.UnixNano()) / 1e9
	reg.GaugeFunc("nmo_process_start_time_seconds",
		"Unix time the process started.",
		func() float64 { return start })
	reg.GaugeFunc("nmo_uptime_seconds", "Seconds since the process started.", Uptime)
}

// ServeDebug serves the net/http/pprof endpoints under /debug/pprof/
// on a private mux at addr — the daemons' opt-in -debug-addr
// listener, never the public API port. The listener is open when it
// returns, so a taken or malformed addr fails the daemon's start;
// closing the returned server stops it.
func ServeDebug(addr string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, nil
}
