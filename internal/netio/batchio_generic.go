//go:build !linux || !amd64

package netio

import "errors"

// errNoReusePort reports that this platform build has no SO_REUSEPORT
// support wired up; Listen refuses more than one shard.
var errNoReusePort = errors.New("netio: SO_REUSEPORT unavailable on this platform")

// mmsgState is unavailable off linux/amd64; batchConn keeps a nil pointer
// and every call takes the portable single-datagram path.
type mmsgState struct{}

func newMmsgState(int) *mmsgState { return nil }

func (b *batchConn) readMmsg() ([]recvSlot, error, bool) { return nil, nil, false }

func (b *batchConn) writeMmsg([][]byte) (int, error, bool) { return 0, nil, false }

func setReusePort(uintptr) error { return errNoReusePort }
