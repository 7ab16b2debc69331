package live

// The tests take a collector's sections as their own byte slices; the
// registry has them appended into the snapshot being encoded.

func (c *Collector) captureComm() []byte  { return c.appendComm(nil) }
func (c *Collector) capturePar() []byte   { return c.appendPar(nil) }
func (c *Collector) captureMatch() []byte { return c.appendMatchTo(nil) }
