// Package job is an errflow-analyzer fixture: the directory sits at
// internal/job, where the remote client's HTTP calls live.
package job

import "os"

// Read drops the error of a deferred Close.
func Read(name string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close() // want "deferred call discards error result of f.Close"
	return nil
}

// ReadWaived carries a reasoned waiver instead.
func ReadWaived(name string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close() //matex:err-ok(fixture: read-only handle)
	return nil
}
