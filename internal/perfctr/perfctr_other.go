//go:build !linux

package perfctr

import "errors"

// counter is never opened: only Linux has one.
type counter struct{}

func open() (*counter, error) { return nil, errors.New("perfctr: instruction counting needs Linux") }

func (*counter) start() error          { return nil }
func (*counter) stop() (uint64, error) { return 0, nil }
func (*counter) close() error          { return nil }
