package cliflags

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"cosmos/internal/obs"
	"cosmos/internal/sim"
	"cosmos/internal/telemetry"
	"cosmos/internal/watch"
)

// CheckTraceOut rejects -trace-out without span sampling: the trace file
// holds the span recorder's slowest exemplars, so there is nothing to write
// unless -span-sample is on.
func (s *Spans) CheckTraceOut(tracePath string) error {
	if tracePath != "" && !s.Enabled() {
		return errors.New("-trace-out exports the sampled span trees: set -span-sample > 0")
	}
	return nil
}

// Attach wires one simulation's telemetry, identically for cosmos-sim's
// single run and for every cell a cosmos-bench campaign executes. It builds
// a registry over s and, as configured by spans and the arguments:
//   - attaches a span recorder and registers it in spanHub;
//   - attaches a watchdog and registers it in watchHub;
//   - points the fault plane's notifier at broker;
//   - builds an interval sampler writing statsPath (CSV iff it ends in
//     .csv, JSONL otherwise), teed into broker's /events stream and fed to
//     the watchdog;
//   - writes the recorder's exemplars to tracePath as a Chrome trace once
//     the run is over.
//
// Empty paths and nil broker/hubs are off. Register further metrics into the
// returned registry before the run starts. The returned cleanup, called once
// the run finishes, closes the stats sink and writes the trace, and returns
// their errors instead of exiting, so a campaign worker can log a failed sink
// and carry on. When Attach itself fails it closes what it opened; s may keep
// the metrics and the recorder, which never change results.
func Attach(s *sim.System, label string, spans *Spans, statsPath string, interval uint64, tracePath string,
	logger *slog.Logger, broker *obs.Broker, spanHub *obs.SpanHub, watchHub *obs.WatchHub) (*telemetry.Registry, func() error, error) {
	if err := spans.CheckTraceOut(tracePath); err != nil {
		return nil, nil, err
	}
	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg.Root())
	if in := s.Faults(); in != nil && broker != nil {
		in.Notify = broker.FaultNotifier(label)
	}
	rec := spans.Recorder()
	if rec != nil {
		s.AttachSpans(rec)
		rec.RegisterMetrics(reg.Root().Scope("span"))
		if spanHub != nil {
			spanHub.Register(label, rec)
		}
	}

	cfg := telemetry.SamplerConfig{Interval: interval}
	if spans.Watch {
		// The watchdog consumes the sampler's interval rows in process, so
		// -watch builds a sampler even with no file sink.
		dog := watch.New(reg, watch.Config{Notify: obs.WatchNotifier(logger, broker, label)})
		dog.RegisterMetrics(reg.Root().Scope("watch"))
		if watchHub != nil {
			watchHub.Register(label, dog)
		}
		cfg.Observer = dog.ObserveRow
	}
	var statsFile *os.File
	if statsPath != "" {
		f, err := os.Create(statsPath)
		if err != nil {
			return nil, nil, fmt.Errorf("stats sink: %w", err)
		}
		statsFile = f
		if strings.HasSuffix(statsPath, ".csv") {
			cfg.CSV = f
		} else {
			cfg.JSONL = f
		}
	}
	if broker != nil {
		events := broker.SampleWriter(label)
		if cfg.JSONL != nil {
			cfg.JSONL = io.MultiWriter(cfg.JSONL, events)
		} else {
			cfg.JSONL = events
		}
	}
	var sp *telemetry.Sampler
	if cfg.JSONL != nil || cfg.CSV != nil || cfg.Observer != nil {
		var err error
		if sp, err = telemetry.NewSampler(reg, cfg); err != nil {
			if statsFile != nil {
				statsFile.Close()
			}
			return nil, nil, err
		}
		s.AttachSampler(sp)
	}

	cleanup := func() error {
		var errs []error
		if sp != nil && sp.Err() != nil {
			errs = append(errs, fmt.Errorf("stats sink: %w", sp.Err()))
		}
		if statsFile != nil {
			errs = append(errs, statsFile.Close())
		}
		if tracePath != "" {
			errs = append(errs, writeTrace(tracePath, rec))
		}
		return errors.Join(errs...)
	}
	return reg, cleanup, nil
}

func writeTrace(path string, rec *telemetry.SpanRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace sink: %w", err)
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("trace sink: %w", err)
	}
	return f.Close()
}
