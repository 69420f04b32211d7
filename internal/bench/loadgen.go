package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memcache"
)

// loadGen is the Figure 11 load generator, modeled on memtier-benchmark
// (§6.5): a closed loop of sets and gets in the paper's 1:4 mix, keys drawn
// uniformly from [0, keyRange), for a fixed duration, against a KV
// in-process or a server over the memcached text protocol.
type loadGen struct {
	keyRange int
	threads  int // workers in-process, connections over TCP
	duration time.Duration
}

const (
	loadSets, loadGets = 1, 4
	loadSeed           = 42
)

var loadValue = bytes.Repeat([]byte{0xAB}, 64)

// loadResult reports one run.
type loadResult struct {
	ops, hits  uint64
	throughput float64 // ops/sec
}

// loadClient is what one worker drives: a KV called directly, or one text
// connection.
type loadClient interface {
	set(key, value []byte) error
	get(key []byte) (hit bool, err error)
	close()
}

func loadKey(dst []byte, i int) []byte {
	return strconv.AppendInt(append(dst, "memtier-"...), int64(i), 10)
}

// preload stores every second key: the paper warms the cache with "items
// covering half of the key range" before each experiment.
func (g loadGen) preload(c loadClient) error {
	var kb [32]byte
	for i := 0; i < g.keyRange; i += 2 {
		if err := c.set(loadKey(kb[:0], i), loadValue); err != nil {
			return err
		}
	}
	return nil
}

func (g loadGen) preloadTCP(addr string) error {
	c, err := dialText(addr)
	if err != nil {
		return err
	}
	defer c.close()
	return g.preload(c)
}

func (g loadGen) runKV(kv memcache.KV) (loadResult, error) {
	return g.run(func() (loadClient, error) { return kvClient{kv}, nil })
}

func (g loadGen) runTCP(addr string) (loadResult, error) {
	return g.run(func() (loadClient, error) { return dialText(addr) })
}

// run drives the mix from g.threads workers, each on its own client, until
// the duration elapses or a worker fails.
func (g loadGen) run(dial func() (loadClient, error)) (loadResult, error) {
	var ops, hits atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, g.threads)
	start := time.Now()
	for t := 0; t < g.threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := dial()
			if err != nil {
				errs <- err
				return
			}
			defer c.close()
			rng := rand.New(rand.NewSource(loadSeed + int64(t)))
			var kb [32]byte
			var n, h uint64
			for !stop.Load() {
				k := loadKey(kb[:0], rng.Intn(g.keyRange))
				if rng.Intn(loadSets+loadGets) < loadSets {
					err = c.set(k, loadValue)
				} else {
					var hit bool
					if hit, err = c.get(k); hit {
						h++
					}
				}
				if err != nil {
					errs <- err
					return
				}
				n++
			}
			ops.Add(n)
			hits.Add(h)
		}()
	}
	time.Sleep(g.duration)
	stop.Store(true)
	wg.Wait()
	el := time.Since(start)
	select {
	case err := <-errs:
		return loadResult{}, err
	default:
	}
	return loadResult{
		ops: ops.Load(), hits: hits.Load(),
		throughput: float64(ops.Load()) / el.Seconds(),
	}, nil
}

// kvClient calls a KV in-process (implementations are safe for concurrent
// use; NV-Memcached draws implicit sessions).
type kvClient struct{ kv memcache.KV }

func (c kvClient) set(k, v []byte) error { return c.kv.Set(k, v, 0, 0) }
func (c kvClient) get(k []byte) (bool, error) {
	_, _, ok := c.kv.Get(k)
	return ok, nil
}
func (kvClient) close() {}

// textConn is one memcached text-protocol connection, one request in flight.
type textConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dialText(addr string) (*textConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &textConn{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

func (c *textConn) close() { c.conn.Close() }

func (c *textConn) set(k, v []byte) error {
	fmt.Fprintf(c.w, "set %s 0 0 %d\r\n", k, len(v))
	c.w.Write(v)
	c.w.WriteString("\r\n")
	if err := c.w.Flush(); err != nil {
		return err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return err
	}
	if string(line) != "STORED\r\n" {
		return fmt.Errorf("loadgen: set got %q", line)
	}
	return nil
}

func (c *textConn) get(k []byte) (hit bool, err error) {
	fmt.Fprintf(c.w, "get %s\r\n", k)
	if err := c.w.Flush(); err != nil {
		return false, err
	}
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return false, err
		}
		if string(line) == "END\r\n" {
			return hit, nil
		}
		// VALUE <key> <flags> <bytes>, then the data block and its CRLF.
		f := bytes.Fields(line)
		if len(f) != 4 || string(f[0]) != "VALUE" {
			return false, fmt.Errorf("loadgen: get got %q", line)
		}
		sz, err := strconv.Atoi(string(f[3]))
		if err != nil {
			return false, fmt.Errorf("loadgen: get got %q", line)
		}
		if _, err := c.r.Discard(sz + 2); err != nil {
			return false, err
		}
		hit = true
	}
}
