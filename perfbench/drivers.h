// The three closed-loop workloads. Each sets up Spark mode and Deca mode
// in this process, runs their rounds in alternating blocks, then checks
// the two modes against each other at full size and its own driver
// against the repo's entry point at a reduced size.
#ifndef PERFBENCH_DRIVERS_H_
#define PERFBENCH_DRIVERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "harness.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 20;  // measured time, split evenly between the modes
  bool trace = false;
  bool tiny = false;  // self-test sizes
  std::string spill_dir;
};

struct WorkloadResult {
  ModeResult spark;
  ModeResult deca;
  double peak_rss_mb = 0;  // read after the measured phase
  std::vector<std::string> errors;  // reference-check mismatches
};

/// Scales the pacing for the run: the mode's share of the measured time,
/// and a shrunken warm-up/count window for the self-test.
Pace MakePace(const RunOptions& opt, int warmup, int count_rounds);

/// Compares the cross-mode fingerprints over the prefix both modes ran.
void CheckModesAgree(const char* what, WorkloadResult* r);

/// Times one set-up phase into `out->setup_layers[name]` and the
/// repetition's running total.
class SetupPhase {
 public:
  SetupPhase(ModeResult* out, const char* name)
      : out_(out), name_(name), start_(deca::NowNanos()) {}
  ~SetupPhase() {
    double ms = static_cast<double>(deca::NowNanos() - start_) / 1e6;
    out_->setup_layers[name_].push_back(ms);
    out_->setup_ms.back() += ms;
  }
  SetupPhase(const SetupPhase&) = delete;
  SetupPhase& operator=(const SetupPhase&) = delete;

 private:
  ModeResult* out_;
  const char* name_;
  int64_t start_;
};

constexpr double kBlockSeconds = 0.5;

/// Runs the two modes' measured phases one after the other in a fixed
/// order, Spark then Deca, alternating in blocks of about kBlockSeconds
/// of round time until both are done. Each mode's rounds then span the
/// whole run rather than one half of it, so host phases of a few seconds
/// (the same round runs up to a third slower while they last) weigh on
/// both modes alike.
template <class A, class B>
void Interleave(A& spark, B& deca) {
  while (spark.More() || deca.More()) {
    if (spark.More()) spark.RunBlock(kBlockSeconds);
    if (deca.More()) deca.RunBlock(kBlockSeconds);
  }
}

/// Sets up one mode `reps` times back to back, timing each set-up into
/// `out`, and keeps the last. Only one context per mode is live at a
/// time.
template <class D, class Size>
std::unique_ptr<D> TimedSetups(Mode mode, const Size& size,
                               const RunOptions& opt, int reps,
                               ModeResult* out) {
  std::unique_ptr<D> d;
  for (int rep = 0; rep < reps; ++rep) {
    d.reset();
    d = std::make_unique<D>(mode, size, opt);
    out->setup_ms.push_back(0);
    d->Setup(out);
  }
  return d;
}

/// One mode of a round-based workload (lr-knee, serve-tiers). `D` builds
/// the mode's context and input in Setup and runs one closed-loop round
/// per Round call. Engine counts cover the count window only.
template <class D, class Size>
class RoundMode {
 public:
  RoundMode(Mode mode, const Size& size, const RunOptions& opt,
            const Pace& pace, int setup_reps, ModeResult* out)
      : pace_(pace),
        out_(out),
        loop_(pace, opt.trace, out),
        d_(TimedSetups<D>(mode, size, opt, setup_reps, out)) {
    out->mode = mode;
    out->cache_mb = d_->CacheMb();
    out->tracer.Attach(&d_->ctx());
  }
  ~RoundMode() { out_->tracer.Attach(nullptr); }
  RoundMode(const RoundMode&) = delete;
  RoundMode& operator=(const RoundMode&) = delete;

  bool More() const { return loop_.More(); }

  /// Runs rounds until `seconds` more measured round time is spent (at
  /// least one round; warm-up rounds do not count).
  void RunBlock(double seconds) {
    const double until = loop_.spent_seconds() + seconds;
    do {
      Round();
    } while (loop_.More() && loop_.spent_seconds() < until);
  }

 private:
  void Round() {
    if (loop_.in_count_window_start()) start_ = ReadCounters(d_->ctx());
    loop_.Begin(Layer::kStage);
    d_->Round(loop_.round(), loop_.measured(), &out_->tracer, out_);
    loop_.End();
    ++out_->attempted;
    out_->fingerprints.push_back(d_->Fingerprint());
    if (loop_.at_count_window_end()) {
      EngineCounts(start_, ReadCounters(d_->ctx()), pace_.count_rounds,
                   &out_->counts);
      out_->counts["spark.stage.stages"] = 1;
    }
  }

  Pace pace_;
  ModeResult* out_;
  RoundLoop loop_;
  std::unique_ptr<D> d_;
  Counters start_;
};

void RunLrKnee(const RunOptions& opt, WorkloadResult* out);
void RunStreamEpochs(const RunOptions& opt, WorkloadResult* out);
void RunServeTiers(const RunOptions& opt, WorkloadResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVERS_H_
