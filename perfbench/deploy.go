package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"partix/internal/cluster"
	"partix/internal/engine"
	"partix/internal/fragmentation"
	"partix/internal/obs"
	"partix/internal/partix"
	"partix/internal/wire"
	"partix/internal/xmltree"
)

// deployment is one coordinator with its node servers, all in this
// process: each node is an engine behind a wire.Server on loopback TCP,
// configured as partixd configures it by default, and the coordinator
// reaches it through a wire.Client, as the partix CLI does.
type deployment struct {
	dir   string
	sys   *partix.System
	meta  *partix.CollectionMeta
	nodes []*node
}

// node is one node process's state: its engine, server and the
// coordinator's client for it.
type node struct {
	name   string
	path   string
	addr   string
	db     *engine.DB
	srv    *wire.Server
	served chan struct{} // closed when Serve returns
	client *wire.Client
}

// deploy opens n nodes under dir, starts their servers and connects a
// coordinator with concurrent fan-out to them. Everything else is left at
// its shipped default.
func deploy(dir string, n int) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &deployment{dir: dir, sys: partix.NewSystem(cluster.GigabitEthernet)}
	d.sys.SetConcurrent(true)
	for i := 0; i < n; i++ {
		nd := &node{name: fmt.Sprintf("node%d", i), path: filepath.Join(dir, fmt.Sprintf("node%d.db", i))}
		d.nodes = append(d.nodes, nd)
		if err := d.start(nd); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// start opens a node's engine, serves it and dials it. A restarted node
// listens on its previous address.
func (d *deployment) start(nd *node) error {
	db, err := engine.Open(nd.path, engine.Options{})
	if err != nil {
		return err
	}
	addr := nd.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		db.Close()
		return err
	}
	nd.db, nd.addr = db, l.Addr().String()
	recorder := obs.NewFlightRecorder(0)
	recorder.SetSlowThreshold(100 * time.Millisecond)
	nd.srv = wire.NewServerLogger(db, nil, wire.ServerOptions{
		IdleTimeout:  5 * time.Minute,
		DrainTimeout: 5 * time.Second,
		Recorder:     recorder,
		Profiler:     obs.NewWorkloadProfiler(0),
	})
	nd.served = make(chan struct{})
	go func(srv *wire.Server, l net.Listener, done chan struct{}) {
		defer close(done)
		srv.Serve(l)
	}(nd.srv, l, nd.served)
	client, err := wire.DialWith(nd.name, nd.addr, wire.ClientOptions{})
	if err != nil {
		d.stop(nd)
		return err
	}
	nd.client = client
	d.sys.AddNode(client)
	return nil
}

// stop closes a node's client, server and engine, in that order, and
// waits for the server loop to return.
func (d *deployment) stop(nd *node) error {
	var errs []error
	if nd.client != nil {
		errs = append(errs, nd.client.Close())
		nd.client = nil
	}
	if nd.srv != nil {
		errs = append(errs, nd.srv.Close())
		<-nd.served
		nd.srv = nil
	}
	if nd.db != nil {
		errs = append(errs, nd.db.Close())
		nd.db = nil
	}
	return errors.Join(errs...)
}

// restart stops every node cleanly and starts it again on the same
// store and address; the coordinator redials.
func (d *deployment) restart() error {
	for _, nd := range d.nodes {
		if err := d.stop(nd); err != nil {
			return fmt.Errorf("stop %s: %w", nd.name, err)
		}
	}
	for _, nd := range d.nodes {
		if err := d.start(nd); err != nil {
			return fmt.Errorf("restart %s: %w", nd.name, err)
		}
	}
	return nil
}

// publish places fragment i of scheme on node i and publishes c.
func (d *deployment) publish(c *xmltree.Collection, scheme *fragmentation.Scheme) error {
	placement := map[string]string{}
	for i, f := range scheme.Fragments {
		placement[f.Name] = d.nodes[i].name
	}
	if err := d.sys.Publish(c, scheme, placement, partix.PublishOptions{}); err != nil {
		return err
	}
	d.meta = d.sys.Catalog().Lookup(c.Name)
	return nil
}

// nodeFor returns the node a fragment is placed on.
func (d *deployment) nodeFor(fragment string) *node {
	return d.nodeNamed(d.meta.Placement[fragment])
}

// nodeNamed returns the node with the given name.
func (d *deployment) nodeNamed(name string) *node {
	for _, nd := range d.nodes {
		if nd.name == name {
			return nd
		}
	}
	return nil
}

// documents lists the documents each node stores, by node name.
func (d *deployment) documents() (map[string][]docRef, error) {
	out := map[string][]docRef{}
	for _, nd := range d.nodes {
		st := nd.db.Store()
		for _, c := range st.Collections() {
			names, err := st.Documents(c)
			if err != nil {
				return nil, fmt.Errorf("list %s on %s: %w", c, nd.name, err)
			}
			for _, n := range names {
				out[nd.name] = append(out[nd.name], docRef{c, n})
			}
		}
	}
	return out, nil
}

// diskBytes is the size of every node's store and WAL files.
func (d *deployment) diskBytes() (int64, error) {
	var total int64
	for _, nd := range d.nodes {
		for _, p := range []string{nd.path, nd.path + ".wal"} {
			st, err := os.Stat(p)
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			if err != nil {
				return 0, err
			}
			total += st.Size()
		}
	}
	return total, nil
}

// close stops every node and removes the deployment's files.
func (d *deployment) close() error {
	var errs []error
	for _, nd := range d.nodes {
		errs = append(errs, d.stop(nd))
	}
	errs = append(errs, os.RemoveAll(d.dir))
	return errors.Join(errs...)
}
