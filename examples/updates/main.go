// Updates demonstrates the data-update extension: documents grow after the
// index is built. Fragments are appended through the public API, the index
// follows each one as a delta under the unchanged required-path set (the
// paper leaves data updates to future work; see DESIGN.md, "Data updates as
// ΔEdges"), and queries keep answering — including references from new data
// into old.
package main

import (
	"fmt"
	"log"
	"strings"

	apex "apex"
)

const seedDoc = `<ledger>
  <accounts>
    <account id="a1"><owner>Ada</owner><balance>100</balance></account>
    <account id="a2"><owner>Ben</owner><balance>250</balance></account>
  </accounts>
  <transfers/>
</ledger>`

func main() {
	ix, err := apex.Open(strings.NewReader(seedDoc), &apex.Options{
		IDREFAttrs: []string{"from", "to"},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Make the hot paths required before the data grows.
	err = ix.AdaptTo([]string{
		"//transfer/amount",
		"//transfer/@from=>account/owner",
	}, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed seed document: %d summary nodes\n", ix.Stats().Nodes)

	// The ledger grows: each transfer references existing accounts.
	transfers := []string{
		`<transfer id="t1" from="a1" to="a2"><amount>30</amount><memo>rent</memo></transfer>`,
		`<transfer id="t2" from="a2" to="a1"><amount>5</amount><memo>coffee</memo></transfer>`,
		`<transfer id="t3" from="a1" to="a2"><amount>12</amount><memo>lunch</memo></transfer>`,
	}
	for _, frag := range transfers {
		if err := ix.Insert("//transfers", frag); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("after %d inserts: %d summary nodes\n\n", len(transfers), ix.Stats().Nodes)

	show := func(q string) {
		res, err := ix.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s -> %v\n", q, res.Values())
	}
	// New data is indexed...
	show("//transfer/amount")
	// ...new labels too (memo never existed in the seed document)...
	show("//memo")
	// ...references from new data into old data resolve...
	show("//transfer/@from=>account/owner")
	// ...and value predicates see the new values.
	show(`//transfer/amount[text()="30"]`)

	// The workload log captured the queries above; adapting keeps the
	// index in step with how the grown document is actually used.
	if err := ix.Adapt(0.2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nre-adapted: %d required paths\n", len(ix.Stats().RequiredPaths))

	// Deletion: drop every transfer and watch the index follow. References
	// into deleted data stop dereferencing; the accounts remain.
	if err := ix.Delete("//transfers/transfer"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter deleting all transfers:")
	show("//transfer/amount")
	show("//account/owner")
}
