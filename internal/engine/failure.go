package engine

import (
	"errors"
	"fmt"
)

// This file implements the engine's failure semantics: the paper's §3.3
// forward-recovery guarantee only holds if a misbehaving application
// program cannot take the workflow server down with it. Program
// invocations are therefore isolated — a panic, an error return or a
// missed deadline fails the *activity* (and, after the retry budget is
// exhausted, the *instance*, with a recorded cause), never the process or
// sibling instances.

// ErrDeadlineExceeded reports that a program invocation did not return
// within its activity's DeadlineMS. It is classified as transient: a hung
// external application may well answer on a later attempt, so the
// activity's retry policy applies.
var ErrDeadlineExceeded = errors.New("engine: program deadline exceeded")

// transientError marks an error as transient (retriable).
type transientError struct{ err error }

func (t *transientError) Error() string { return t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// Transient wraps an error to classify it as a transient infrastructure
// failure: the engine may re-invoke the program under the activity's
// RetryPolicy. Errors not wrapped this way (and panics) are fatal — the
// activity fails immediately. Returns nil for a nil error.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// isTransient reports whether the error is classified transient: wrapped
// with Transient, or a deadline miss.
func isTransient(err error) bool {
	if errors.Is(err, ErrDeadlineExceeded) {
		return true
	}
	var t *transientError
	return errors.As(err, &t)
}

// PanicError is the recorded cause when a program panics; the panic is
// confined to the invocation.
type PanicError struct {
	Value any    // the recovered panic value
	Stack string // goroutine stack at the panic site
}

// Error implements error.
func (p *PanicError) Error() string { return fmt.Sprintf("program panicked: %v", p.Value) }

// ActivityFailure is the recorded cause of a failed instance: the program
// activity that could not complete, how often it was attempted, and the
// final error. Instance.Err returns it (wrapped errors remain inspectable
// with errors.Is/As) and Engine.Instances surfaces its message as the
// instance's failure cause.
type ActivityFailure struct {
	Path     string // activity path within the instance
	Program  string // registered program name
	Iter     int    // exit-condition iteration
	Attempts int    // invocation attempts made (>= 1)
	Cause    error  // last attempt's error
}

// Error implements error.
func (f *ActivityFailure) Error() string {
	if f.Attempts > 1 {
		return fmt.Sprintf("engine: program %q at %s failed after %d attempts: %v",
			f.Program, f.Path, f.Attempts, f.Cause)
	}
	return fmt.Sprintf("engine: program %q at %s: %v", f.Program, f.Path, f.Cause)
}

// Unwrap exposes the underlying cause.
func (f *ActivityFailure) Unwrap() error { return f.Cause }
