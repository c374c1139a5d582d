// Cache tuning: evaluates the content-delivery optimizations the paper's
// §V proposes — eviction policy, a small/large split, revalidation TTL,
// per-publisher partitions, sharding, a parent tier, incognito browsing
// and edge push — against one synthetic week. It prints the same table
// `tsreport` appends under -extras; every configuration is an independent
// CDN, and all of them share two streaming reads of the week.
package main

import (
	"fmt"
	"log"

	"trafficscope"
)

func main() {
	study, err := trafficscope.NewStudy(trafficscope.Config{Seed: 7, Scale: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	results, err := study.Run()
	if err != nil {
		log.Fatal(err)
	}
	table, err := results.ImplicationsTableSource(study.Source())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(table)
}
