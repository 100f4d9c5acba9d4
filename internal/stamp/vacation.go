package stamp

import (
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/txlib"
)

// Vacation models STAMP's travel-reservation system: four tables (cars,
// rooms, flights as resource trees; customers with per-customer
// reservation lists) and three task types — make-reservation, delete-
// customer, and update-tables — in STAMP's proportions. Its transactions
// are long-running and walk trees, giving the large footprints that
// sometimes overflow BTM's L1 and drive the hybrids apart (Figure 5).
//
// Parameters mirror STAMP's: QueriesPerTask (-n), QueryRangePct (-q, the
// fraction of each table tasks touch — smaller is hotter), PctUser (-u,
// the make-reservation share).
type Vacation struct {
	Relations      int
	TasksPerThread int
	QueriesPerTask int
	QueryRangePct  int
	PctUser        int
	Seed           uint64

	resources [3]txlib.Tree // cars, rooms, flights: id → resource addr
	customers txlib.Tree    // customer id → reservation-list head
	arenas    []*txlib.Arena
	setupA    *txlib.Arena
}

// resource block layout (one line): [total, used, price].
const (
	resTotal = 0
	resUsed  = 8
	resPrice = 16
)

// VacationHigh returns the paper's high-contention configuration, scaled:
// more queries per task over a narrower slice of the tables.
func VacationHigh(relations, tasksPerThread int) *Vacation {
	return &Vacation{
		Relations: relations, TasksPerThread: tasksPerThread,
		QueriesPerTask: 4, QueryRangePct: 60, PctUser: 90, Seed: 23,
	}
}

// VacationLow returns the low-contention configuration, scaled.
func VacationLow(relations, tasksPerThread int) *Vacation {
	return &Vacation{
		Relations: relations, TasksPerThread: tasksPerThread,
		QueriesPerTask: 2, QueryRangePct: 90, PctUser: 98, Seed: 23,
	}
}

// Init implements Workload. Each tree is built in bulk (txlib's Build):
// its nodes are allocated in insertion order, each just after the line
// it names, and the finished tree is stored without a descent.
func (v *Vacation) Init(m *machine.Machine, threads int) {
	d := txlib.Direct{M: m}
	// Setup arena: trees + resources + customer list sentinels.
	setupBytes := uint64(v.Relations)*8*mem.LineBytes + 1<<16
	v.setupA = txlib.NewArena(m, nil, setupBytes)
	r := sim.NewRand(v.Seed)
	// Insert ids in random order so the unbalanced trees stay shallow.
	// By id-1: a tree's nodes and values; scratch is Build's.
	n := v.Relations
	tab := make([]uint64, 6*n)
	ids, nodes, vals, scratch := tab[:n], tab[n:2*n], tab[2*n:3*n], tab[3*n:]
	for i := range ids {
		ids[i] = uint64(i) + 1
	}
	shuffle := func() {
		for i := len(ids) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			ids[i], ids[j] = ids[j], ids[i]
		}
	}
	for t := range v.resources {
		v.resources[t] = txlib.NewTree(d, v.setupA)
		shuffle()
		for _, id := range ids {
			res := v.setupA.Alloc(mem.LineBytes)
			d.Store(res+resTotal, uint64(1+r.Intn(5)))
			d.Store(res+resUsed, 0)
			d.Store(res+resPrice, uint64(50+r.Intn(500)))
			vals[id-1] = res
			nodes[id-1] = v.resources[t].NewNode(v.setupA)
		}
		v.resources[t].Build(d, ids, nodes, vals, scratch)
	}
	v.customers = txlib.NewTree(d, v.setupA)
	// Pre-populate every customer with an empty reservation list (as
	// STAMP does): steady-state reservations then only read the customer
	// tree, keeping its hot root region write-free.
	shuffle()
	for _, id := range ids {
		vals[id-1] = txlib.NewList(d, v.setupA).Head()
		nodes[id-1] = v.customers.NewNode(v.setupA)
	}
	v.customers.Build(d, ids, nodes, vals, scratch)
	// Per-thread arenas for in-transaction allocation.
	v.arenas = make([]*txlib.Arena, threads)
	perThread := uint64(v.TasksPerThread*8+64) * mem.LineBytes
	for i := range v.arenas {
		v.arenas[i] = txlib.NewArena(m, nil, perThread)
	}
}

// query is one pre-drawn random choice of a task: a resource, and for
// update-tables its new price.
type query struct {
	table    int
	id       uint64
	newPrice uint64
}

// Thread implements Workload. A task pre-draws its random choices into
// queries, so its body is idempotent across re-execution; the three
// bodies are built once, over what the loop assigns.
func (v *Vacation) Thread(i int, ex tm.Exec) {
	r := sim.NewRand(v.Seed*1_000_003 + uint64(i))
	a := v.arenas[i]
	hot := v.Relations * v.QueryRangePct / 100
	if hot < 1 {
		hot = 1
	}
	var custID uint64
	queries := make([]query, v.QueriesPerTask)
	reserve := func(tx tm.Tx) { v.makeReservation(tx, a, custID, queries) }
	remove := func(tx tm.Tx) { v.deleteCustomer(tx, custID) }
	update := func(tx tm.Tx) { v.updateTables(tx, queries) }
	for task := 0; task < v.TasksPerThread; task++ {
		pct := r.Intn(100)
		custID = uint64(1 + r.Intn(v.Relations))
		switch {
		case pct < v.PctUser:
			for q := range queries {
				queries[q] = query{table: r.Intn(3), id: uint64(1 + r.Intn(hot))}
			}
			ex.Atomic(reserve)
		case pct < v.PctUser+(100-v.PctUser)/2:
			ex.Atomic(remove)
		default:
			for q := range queries {
				queries[q] = query{table: r.Intn(3), id: uint64(1 + r.Intn(hot)), newPrice: uint64(50 + r.Intn(500))}
			}
			ex.Atomic(update)
		}
		ex.Proc().Elapse(uint64(50 + r.Intn(100))) // think time
	}
}

// makeReservation queries several resources across the tables and
// reserves the best-priced available one per table, recording each
// reservation in the customer's list.
func (v *Vacation) makeReservation(tx tm.Tx, a *txlib.Arena, custID uint64, queries []query) {
	var bestRes [3]uint64
	var bestPrice [3]uint64
	for _, q := range queries {
		res, ok := v.resources[q.table].Get(tx, q.id)
		if !ok {
			continue
		}
		total := tx.Load(res + resTotal)
		used := tx.Load(res + resUsed)
		price := tx.Load(res + resPrice)
		if used < total && price > bestPrice[q.table] {
			bestPrice[q.table] = price
			bestRes[q.table] = res
		}
	}
	reserved := false
	var listHead uint64
	for t := 0; t < 3; t++ {
		if bestRes[t] == 0 {
			continue
		}
		if !reserved {
			// Materialize the customer on first reservation.
			var ok bool
			listHead, ok = v.customers.Get(tx, custID)
			if !ok {
				l := txlib.NewList(tx, a)
				listHead = l.Head()
				v.customers.Insert(tx, a, custID, listHead)
			}
			reserved = true
		}
		res := bestRes[t]
		tx.Store(res+resUsed, tx.Load(res+resUsed)+1)
		// Key reservations by resource address (unique per resource;
		// duplicate reservations of one resource collapse, releasing
		// nothing extra at delete time because Insert reports it).
		if !txlib.ListAt(listHead).Insert(tx, a, res, 1) {
			// Already reserved by this customer: undo the extra use.
			tx.Store(res+resUsed, tx.Load(res+resUsed)-1)
		}
	}
}

// deleteCustomer releases all of a customer's reservations.
func (v *Vacation) deleteCustomer(tx tm.Tx, custID uint64) {
	listHead, ok := v.customers.Get(tx, custID)
	if !ok {
		return
	}
	txlib.ListAt(listHead).ForEach(tx, func(res, _ uint64) {
		tx.Store(res+resUsed, tx.Load(res+resUsed)-1)
	})
	v.customers.Delete(tx, custID)
}

// updateTables re-prices random resources (STAMP's manager updates).
func (v *Vacation) updateTables(tx tm.Tx, queries []query) {
	for _, u := range queries {
		if res, ok := v.resources[u.table].Get(tx, u.id); ok {
			tx.Store(res+resPrice, u.newPrice)
		}
	}
}

// Validate implements Workload: every resource's used count must equal
// the number of live customer reservations referencing it, and never
// exceed its capacity.
func (v *Vacation) Validate(m *machine.Machine) error {
	d := txlib.Direct{M: m}
	refs := make(map[uint64]uint64, 3*v.Relations) // reservations per resource, of at most 3·Relations
	v.customers.ForEach(d, func(_, listHead uint64) {
		txlib.ListAt(listHead).ForEach(d, func(res, _ uint64) {
			refs[res]++
		})
	})
	for t := 0; t < 3; t++ {
		var err error
		v.resources[t].ForEach(d, func(id, res uint64) {
			if err != nil {
				return
			}
			total, used := d.Load(res+resTotal), d.Load(res+resUsed)
			if used > total {
				err = validErr("vacation", "table %d id %d: used %d > total %d", t, id, used, total)
				return
			}
			if refs[res] != used {
				err = validErr("vacation", "table %d id %d: used %d but %d reservations", t, id, used, refs[res])
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
