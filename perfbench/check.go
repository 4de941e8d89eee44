package main

import (
	"fmt"

	"ucc/internal/model"
)

// checkCounters is the lost-update check. Every committed read-write
// transaction adds 1 to each item it writes, so after the cluster has
// quiesced every copy of every item must read initial + the number of
// committed transactions that wrote it. Call it only after cluster.close.
func checkCounters(c *cluster, expected []int64) error {
	mismatches := 0
	var first string
	for item := 0; item < numItems; item++ {
		want := initialValue + expected[item]
		for _, sid := range c.pmap.Replicas(model.ItemID(item)) {
			got, _ := c.sites[sid].store.Read(model.ItemID(item))
			if got != want {
				if mismatches == 0 {
					first = fmt.Sprintf("item %d at site %d reads %d, want %d", item, sid, got, want)
				}
				mismatches++
			}
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("lost-update check: %d of %d copies wrong (first: %s)", mismatches, numItems, first)
	}
	return nil
}
