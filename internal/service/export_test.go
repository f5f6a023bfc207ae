package service

import "repro/internal/core"

// SetFlightGap installs the test-only hook that runs after a submission
// registers its flight and before it consults the verdict cache or enqueues.
// Blocking inside the hook holds the flight open, which is how the
// single-flight test forces a concurrent twin submission into the dedup path.
// Must be set before the first Submit.
func (s *Service) SetFlightGap(h func(digest string)) { s.testFlightGap = h }

// SetWorkerGap installs the test-only hook that runs on a worker after it
// takes a job and before it analyzes it. Blocking inside the hook parks that
// worker, which is how the head-of-line test holds one worker busy. Must be
// set before the first Submit.
func (s *Service) SetWorkerGap(h func(digest string)) { s.testWorkerGap = h }

// VerdictKey exposes verdictKey to the option-coverage test.
func VerdictKey(fp core.Fingerprint, o core.AnalyzeOptions) string { return verdictKey(fp, o) }
